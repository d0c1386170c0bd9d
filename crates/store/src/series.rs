//! The chunked time-series store.
//!
//! An `N×L` series matrix is cut on a fixed grid: `chunk_series` rows by
//! `chunk_len` columns per cell (edge cells are smaller). Each cell is one
//! storage object named `c{vi:04}_{ti:08}.cfc` (`vi` = variable-block
//! index, `ti` = time-block index), laid out as:
//!
//! ```text
//! offset 0   magic    b"CFCHNK1\n"          (8 bytes)
//! offset 8   u32 LE   crc32(encoded payload)
//! offset 12  u32 LE   raw payload length in bytes (rows·cols·8)
//! offset 16  u32 LE   rows   (series in this block)
//! offset 20  u32 LE   cols   (time steps in this block)
//! offset 24  encoded payload (codec pipeline over row-major f64 LE)
//! ```
//!
//! The CRC covers the *encoded* bytes, so a torn write or bit flip is
//! caught before the codec ever runs. A `manifest.json` object records the
//! grid geometry and codec so readers never guess.
//!
//! [`SeriesWriter`] ingests one time-step sample at a time (the shape a
//! simulator produces) under `O(n_series · chunk_len)` memory.
//! [`WindowScan`] streams standardized training windows back out under a
//! bounded carry buffer — together they keep both generation and discovery
//! memory independent of the series length.
//!
//! ## Reads
//!
//! A streamed discovery reads every chunk three times: two
//! [`SeriesStore::stats`] passes (sums, then squared deviations) and the
//! [`WindowScan`] pass. Each pass fetches, CRC-checks and decodes chunks
//! concurrently on the `cf-par` pool: `stats` in batches of at most
//! [`cf_par::threads`] chunks, the window scan in batches of the time
//! blocks its read-ahead allows. Memory is the window scan's carry
//! (`read_ahead` chunk columns plus one window) plus at most `threads`
//! chunks in flight. When a batch holds bad chunks, the error returned
//! names the first one in scan order (ascending `ti`, then `vi`).
//!
//! ## Bitwise contract
//!
//! Standardization statistics ([`SeriesStore::stats`]) fold each decoded
//! chunk serially, on the calling thread, in ascending time order — the
//! *same addition order* as the in-RAM pipeline's `row.iter().sum()` — and
//! the window scan decodes each chunk into its own disjoint columns of the
//! carry, which involves no arithmetic. Windows apply the same
//! `(x - mean) / std` expression per element, so a streamed window is
//! bitwise identical to one sliced from the fully materialised,
//! standardized matrix, at any thread count.

use crate::codec::Pipeline;
use crate::storage::Storage;
use crate::{crc32, StoreError};
use cf_tensor::Tensor;
use serde::{Deserialize, Serialize};
use std::sync::Arc;

const CHUNK_MAGIC: &[u8; 8] = b"CFCHNK1\n";
const MANIFEST_KEY: &str = "manifest.json";
const MANIFEST_MAGIC: &str = "CFSTORE1";

/// Store geometry and encoding, persisted as `manifest.json`.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Manifest {
    /// Format magic, always `"CFSTORE1"`.
    pub magic: String,
    /// Number of series (variables), the matrix's row count.
    pub n_series: usize,
    /// Total time steps, the matrix's column count.
    pub length: usize,
    /// Rows per chunk block (the last block may be smaller).
    pub chunk_series: usize,
    /// Columns per chunk block (the last block may be smaller).
    pub chunk_len: usize,
    /// Codec pipeline name (`"raw"`, `"delta"`, `"delta-varint"`).
    pub codec: String,
    /// Element type of the stored samples; always `"f64"` today.
    pub dtype: String,
}

impl Manifest {
    /// Number of variable blocks along the series axis.
    pub fn v_blocks(&self) -> usize {
        self.n_series.div_ceil(self.chunk_series)
    }

    /// Number of time blocks along the time axis.
    pub fn t_blocks(&self) -> usize {
        self.length.div_ceil(self.chunk_len)
    }

    /// Rows in variable block `vi`.
    fn rows_of(&self, vi: usize) -> usize {
        (self.n_series - vi * self.chunk_series).min(self.chunk_series)
    }

    /// Columns in time block `ti`.
    fn cols_of(&self, ti: usize) -> usize {
        (self.length - ti * self.chunk_len).min(self.chunk_len)
    }
}

/// Rejects a chunk grid whose largest chunk (`rows × cols` samples) would
/// not fit the header's `u32` raw byte length.
fn check_chunk_bytes(rows: usize, cols: usize) -> Result<(), StoreError> {
    let bytes = rows.checked_mul(cols).and_then(|s| s.checked_mul(8));
    match bytes {
        Some(b) if b <= u32::MAX as usize => Ok(()),
        _ => Err(StoreError::Invalid {
            detail: format!(
                "a chunk of {rows} rows × {cols} cols is {} bytes raw, over the \
                 {} byte limit of the chunk header's u32 length",
                bytes.map_or_else(|| "over usize::MAX".to_string(), |b| b.to_string()),
                u32::MAX
            ),
        }),
    }
}

/// The storage key of chunk `(vi, ti)`.
pub fn chunk_key(vi: usize, ti: usize) -> String {
    format!("c{vi:04}_{ti:08}.cfc")
}

/// Encodes one chunk (header plus payload) into `out`, replacing its
/// contents. `words` are the row-major sample bit patterns; they run
/// through the codec in one loop, straight into `out`.
fn encode_chunk(
    words: impl Iterator<Item = u64>,
    rows: usize,
    cols: usize,
    codec: &Pipeline,
    out: &mut Vec<u8>,
) {
    let raw_len = rows * cols * 8;
    out.clear();
    out.extend_from_slice(CHUNK_MAGIC);
    out.extend_from_slice(&[0; 4]); // CRC, patched once the payload is in
    out.extend_from_slice(&(raw_len as u32).to_le_bytes());
    out.extend_from_slice(&(rows as u32).to_le_bytes());
    out.extend_from_slice(&(cols as u32).to_le_bytes());
    codec.encode_words(words, out);
    let crc = crc32(&out[24..]);
    out[8..12].copy_from_slice(&crc.to_le_bytes());
}

/// Streams time-step samples into a chunked store. Memory is bounded by
/// one column-block: `n_series × chunk_len` samples.
pub struct SeriesWriter {
    storage: Arc<dyn Storage>,
    codec: Pipeline,
    n_series: usize,
    chunk_series: usize,
    chunk_len: usize,
    /// Row-major `[n_series × buffered]` raw samples of the current block.
    buf: Vec<f64>,
    buffered: usize,
    /// The encoded chunk being written, reused across blocks.
    chunk: Vec<u8>,
    /// Completed time blocks already flushed.
    t_blocks_done: usize,
    length: usize,
}

impl SeriesWriter {
    /// Starts a new store. `chunk_series`/`chunk_len` set the grid;
    /// `codec` is a registered pipeline name.
    pub fn new(
        storage: Arc<dyn Storage>,
        n_series: usize,
        chunk_series: usize,
        chunk_len: usize,
        codec: &str,
    ) -> Result<Self, StoreError> {
        if n_series == 0 || chunk_series == 0 || chunk_len == 0 {
            return Err(StoreError::Invalid {
                detail: format!(
                    "store geometry must be nonzero (n_series={n_series}, \
                     chunk_series={chunk_series}, chunk_len={chunk_len})"
                ),
            });
        }
        check_chunk_bytes(chunk_series.min(n_series), chunk_len)?;
        let codec = Pipeline::by_name(codec)?;
        Ok(Self {
            storage,
            codec,
            n_series,
            chunk_series: chunk_series.min(n_series),
            chunk_len,
            buf: vec![0.0; n_series * chunk_len],
            buffered: 0,
            chunk: Vec::new(),
            t_blocks_done: 0,
            length: 0,
        })
    }

    /// Appends one time step (`sample.len()` must equal `n_series`).
    pub fn append(&mut self, sample: &[f64]) -> Result<(), StoreError> {
        if sample.len() != self.n_series {
            return Err(StoreError::Invalid {
                detail: format!(
                    "sample has {} values, store holds {} series",
                    sample.len(),
                    self.n_series
                ),
            });
        }
        let c = self.buffered;
        for (i, &v) in sample.iter().enumerate() {
            self.buf[i * self.chunk_len + c] = v;
        }
        self.buffered += 1;
        self.length += 1;
        if self.buffered == self.chunk_len {
            self.flush_block()?;
        }
        Ok(())
    }

    /// Writes the buffered column block as one chunk per variable block.
    fn flush_block(&mut self) -> Result<(), StoreError> {
        let cols = self.buffered;
        if cols == 0 {
            return Ok(());
        }
        let ti = self.t_blocks_done;
        let v_blocks = self.n_series.div_ceil(self.chunk_series);
        for vi in 0..v_blocks {
            let r0 = vi * self.chunk_series;
            let rows = (self.n_series - r0).min(self.chunk_series);
            let words = (r0..r0 + rows)
                .flat_map(|r| &self.buf[r * self.chunk_len..][..cols])
                .map(|v| v.to_bits());
            encode_chunk(words, rows, cols, &self.codec, &mut self.chunk);
            self.storage.put(&chunk_key(vi, ti), &self.chunk)?;
        }
        self.t_blocks_done += 1;
        self.buffered = 0;
        Ok(())
    }

    /// Flushes the tail block and writes the manifest. Returns the final
    /// manifest.
    pub fn finish(mut self) -> Result<Manifest, StoreError> {
        self.flush_block()?;
        if self.length == 0 {
            return Err(StoreError::Invalid {
                detail: "cannot finish an empty store (no samples appended)".into(),
            });
        }
        let manifest = Manifest {
            magic: MANIFEST_MAGIC.to_string(),
            n_series: self.n_series,
            length: self.length,
            chunk_series: self.chunk_series,
            chunk_len: self.chunk_len,
            codec: self.codec.name().to_string(),
            dtype: "f64".to_string(),
        };
        let json = serde_json::to_string(&manifest).map_err(|e| StoreError::Invalid {
            detail: format!("manifest: {e}"),
        })?;
        self.storage.put(MANIFEST_KEY, json.as_bytes())?;
        Ok(manifest)
    }
}

/// Read access to a chunked store.
pub struct SeriesStore {
    storage: Arc<dyn Storage>,
    manifest: Manifest,
    codec: Pipeline,
}

impl SeriesStore {
    /// Opens a store by reading and validating its manifest.
    pub fn open(storage: Arc<dyn Storage>) -> Result<Self, StoreError> {
        let target = storage.target(MANIFEST_KEY);
        let bytes = storage.get(MANIFEST_KEY)?;
        let text = std::str::from_utf8(&bytes)
            .map_err(|e| StoreError::corrupt(&target, format!("manifest is not UTF-8: {e}")))?;
        let manifest: Manifest = serde_json::from_str(text)
            .map_err(|e| StoreError::corrupt(&target, format!("unparseable manifest: {e}")))?;
        if manifest.magic != MANIFEST_MAGIC {
            return Err(StoreError::corrupt(
                &target,
                format!(
                    "manifest magic {:?}, expected {MANIFEST_MAGIC:?}",
                    manifest.magic
                ),
            ));
        }
        if manifest.dtype != "f64" {
            return Err(StoreError::mismatch(
                &target,
                format!(
                    "store dtype {:?}, this build reads f64 stores",
                    manifest.dtype
                ),
            ));
        }
        if manifest.n_series == 0
            || manifest.length == 0
            || manifest.chunk_series == 0
            || manifest.chunk_len == 0
        {
            return Err(StoreError::corrupt(&target, "manifest has zero geometry"));
        }
        check_chunk_bytes(
            manifest.chunk_series.min(manifest.n_series),
            manifest.chunk_len.min(manifest.length),
        )?;
        let codec = Pipeline::by_name(&manifest.codec)?;
        Ok(Self {
            storage,
            manifest,
            codec,
        })
    }

    /// Opens a filesystem store rooted at `dir`.
    pub fn open_dir(dir: impl Into<std::path::PathBuf>) -> Result<Self, StoreError> {
        Self::open(Arc::new(crate::storage::FsStorage::new(dir)))
    }

    /// The store's manifest.
    pub fn manifest(&self) -> &Manifest {
        &self.manifest
    }

    /// Reads and fully validates chunk `(vi, ti)`: magic, CRC, grid
    /// geometry, codec decode, and length agreement, in that order.
    /// Returns the raw row-major samples (`rows × cols`), decoded straight
    /// from the stored bytes into one buffer.
    pub fn read_chunk(&self, vi: usize, ti: usize) -> Result<Vec<f64>, StoreError> {
        let mut out = Vec::new();
        let o = &mut out;
        self.decode_chunk(vi, ti, move |samples| {
            o.reserve_exact(samples);
            move |v| o.push(v)
        })?;
        Ok(out)
    }

    /// [`SeriesStore::read_chunk`] straight into `rows`: one slice per row
    /// of variable block `vi`, each as long as time block `ti`.
    fn read_chunk_into(
        &self,
        vi: usize,
        ti: usize,
        rows: &mut [&mut [f64]],
    ) -> Result<(), StoreError> {
        self.decode_chunk(vi, ti, move |_| {
            let (mut r, mut c) = (0, 0);
            move |v| {
                // Samples past the geometry are only counted, then rejected.
                if let Some(row) = rows.get_mut(r) {
                    row[c] = v;
                    c += 1;
                    if c == row.len() {
                        (r, c) = (r + 1, 0);
                    }
                }
            }
        })
    }

    /// Fetches chunk `(vi, ti)`, validates it and decodes its samples in
    /// row-major order into the sink `make_sink` builds. The checks run in
    /// the order documented on [`SeriesStore::read_chunk`]; the CRC runs
    /// before the codec. `make_sink` is called once the header checks
    /// pass, with the sample count to expect, bounded by the payload size
    /// (every codec spends at least one byte per sample), so a corrupt
    /// manifest cannot make a reader allocate for samples that are not
    /// there.
    fn decode_chunk<S: FnMut(f64)>(
        &self,
        vi: usize,
        ti: usize,
        make_sink: impl FnOnce(usize) -> S,
    ) -> Result<(), StoreError> {
        let key = chunk_key(vi, ti);
        let target = self.storage.target(&key);
        let bytes = self.storage.get(&key)?;
        if bytes.len() < 24 {
            return Err(StoreError::corrupt(
                &target,
                format!("truncated chunk: {} bytes, header needs 24", bytes.len()),
            ));
        }
        if &bytes[..8] != CHUNK_MAGIC {
            return Err(StoreError::corrupt(&target, "bad chunk magic"));
        }
        let want_crc = u32::from_le_bytes(bytes[8..12].try_into().unwrap());
        let raw_len = u32::from_le_bytes(bytes[12..16].try_into().unwrap()) as usize;
        let rows = u32::from_le_bytes(bytes[16..20].try_into().unwrap()) as usize;
        let cols = u32::from_le_bytes(bytes[20..24].try_into().unwrap()) as usize;
        let encoded = &bytes[24..];
        let got_crc = crc32(encoded);
        if got_crc != want_crc {
            return Err(StoreError::corrupt(
                &target,
                format!("checksum mismatch: stored {want_crc:08x}, computed {got_crc:08x}"),
            ));
        }
        if rows != self.manifest.rows_of(vi) || cols != self.manifest.cols_of(ti) {
            return Err(StoreError::corrupt(
                &target,
                format!(
                    "chunk claims {rows}×{cols}, manifest grid expects {}×{}",
                    self.manifest.rows_of(vi),
                    self.manifest.cols_of(ti)
                ),
            ));
        }
        let sink = make_sink((rows * cols).min(encoded.len()));
        let samples = self
            .codec
            .decode_each(encoded, sink)
            .map_err(|e| StoreError::corrupt(&target, format!("codec decode failed: {e}")))?;
        if samples * 8 != raw_len || raw_len != rows * cols * 8 {
            return Err(StoreError::corrupt(
                &target,
                format!(
                    "decoded {} bytes, header claims {raw_len}, geometry needs {}",
                    samples * 8,
                    rows * cols * 8
                ),
            ));
        }
        Ok(())
    }

    /// Reads the chunks `(vi, ti)` of `cells` and hands each to `fold` in
    /// the order given. Fetch, CRC check and decode run concurrently on the
    /// `cf-par` pool, at most [`cf_par::threads`] chunks at a time; `fold`
    /// runs serially on the caller's thread, so every accumulation keeps
    /// its serial order and its bits at any thread count. On failure the
    /// error of the first bad chunk in `cells` order is returned, after the
    /// chunks before it were folded.
    fn for_each_chunk(
        &self,
        cells: &[(usize, usize)],
        mut fold: impl FnMut(usize, usize, &[f64]),
    ) -> Result<(), StoreError> {
        for batch in cells.chunks(cf_par::threads()) {
            let chunks = cf_par::par_map(batch.len(), |k| self.read_chunk(batch[k].0, batch[k].1));
            for (&(vi, ti), chunk) in batch.iter().zip(chunks) {
                fold(vi, ti, &chunk?);
            }
        }
        Ok(())
    }

    /// Every chunk of time blocks `tis`, in scan order: ascending `ti`,
    /// then ascending `vi`.
    fn cells(&self, tis: std::ops::Range<usize>) -> Vec<(usize, usize)> {
        let v_blocks = self.manifest.v_blocks();
        tis.flat_map(|ti| (0..v_blocks).map(move |vi| (vi, ti)))
            .collect()
    }

    /// Materialises columns `[t0, t1)` as an `n_series × (t1-t0)` tensor.
    pub fn read_range(&self, t0: usize, t1: usize) -> Result<Tensor, StoreError> {
        let m = &self.manifest;
        if t0 >= t1 || t1 > m.length {
            return Err(StoreError::Invalid {
                detail: format!("range [{t0}, {t1}) outside store of length {}", m.length),
            });
        }
        let width = t1 - t0;
        let mut data = vec![0.0f64; m.n_series * width];
        let cells = self.cells(t0 / m.chunk_len..(t1 - 1) / m.chunk_len + 1);
        self.for_each_chunk(&cells, |vi, ti, chunk| {
            let block_t0 = ti * m.chunk_len;
            let cols = m.cols_of(ti);
            // Columns of this block that intersect [t0, t1).
            let lo = t0.max(block_t0) - block_t0;
            let hi = t1.min(block_t0 + cols) - block_t0;
            let r0 = vi * m.chunk_series;
            for r in 0..m.rows_of(vi) {
                let src = &chunk[r * cols + lo..r * cols + hi];
                let dst_t = block_t0 + lo - t0;
                data[(r0 + r) * width + dst_t..][..hi - lo].copy_from_slice(src);
            }
        })?;
        Tensor::from_vec(vec![m.n_series, width], data).map_err(|e| StoreError::Invalid {
            detail: e.to_string(),
        })
    }

    /// Materialises the whole series. For tests and small stores; the point
    /// of this crate is that discovery does *not* need this.
    pub fn read_all(&self) -> Result<Tensor, StoreError> {
        self.read_range(0, self.manifest.length)
    }

    /// Per-series standardization statistics, streamed in two passes over
    /// every chunk: sums for the means, then squared deviations from them.
    /// Chunks decode concurrently but fold serially in ascending time
    /// order, so each series' addition order is ascending `t` — bitwise
    /// identical to the in-RAM pipeline's `row.iter().sum()` folds.
    pub fn stats(&self) -> Result<StandardizeStats, StoreError> {
        let m = &self.manifest;
        let cells = self.cells(0..m.t_blocks());
        let means: Vec<f64> = self
            .fold_series(&cells, |_, v| v)?
            .iter()
            .map(|s| s / m.length as f64)
            .collect();
        let stds: Vec<f64> = self
            .fold_series(&cells, |i, v| (v - means[i]) * (v - means[i]))?
            .iter()
            .map(|s| (s / m.length as f64).sqrt().max(1e-12))
            .collect();
        Ok(StandardizeStats { means, stds })
    }

    /// Sums `term(series, sample)` per series over the chunks of `cells`,
    /// each series in the order its samples appear there.
    fn fold_series(
        &self,
        cells: &[(usize, usize)],
        term: impl Fn(usize, f64) -> f64,
    ) -> Result<Vec<f64>, StoreError> {
        let m = &self.manifest;
        let mut acc = vec![0.0f64; m.n_series];
        self.for_each_chunk(cells, |vi, ti, chunk| {
            let cols = m.cols_of(ti);
            let r0 = vi * m.chunk_series;
            for r in 0..m.rows_of(vi) {
                let mut a = acc[r0 + r];
                for &v in &chunk[r * cols..(r + 1) * cols] {
                    a += term(r0 + r, v);
                }
                acc[r0 + r] = a;
            }
        })?;
        Ok(acc)
    }

    /// Streams standardized `n_series × window` training windows at
    /// `stride`, holding at most `window + read_ahead·chunk_len` columns
    /// of raw data in memory.
    pub fn standardized_windows(
        &self,
        window: usize,
        stride: usize,
        read_ahead: usize,
    ) -> Result<WindowScan<'_>, StoreError> {
        let m = &self.manifest;
        if window == 0 || stride == 0 {
            return Err(StoreError::Invalid {
                detail: format!("window ({window}) and stride ({stride}) must be nonzero"),
            });
        }
        if window > m.length {
            return Err(StoreError::Invalid {
                detail: format!("window {window} exceeds store length {}", m.length),
            });
        }
        let stats = self.stats()?;
        Ok(WindowScan {
            store: self,
            stats,
            window,
            stride,
            read_ahead: read_ahead.max(1),
            next_start: 0,
            buf: vec![Vec::new(); m.n_series],
            buf_t0: 0,
            t_loaded: 0,
            done: false,
        })
    }
}

/// Per-series mean and standard deviation (the standardization
/// parameters), computed by [`SeriesStore::stats`].
#[derive(Debug, Clone)]
pub struct StandardizeStats {
    /// Per-series mean.
    pub means: Vec<f64>,
    /// Per-series std, floored at `1e-12` like the in-RAM pipeline.
    pub stds: Vec<f64>,
}

/// Streaming iterator over standardized training windows. Yields
/// `n_series × window` tensors in ascending start order; chunk-read
/// failures surface as `Err` items and end the scan.
pub struct WindowScan<'a> {
    store: &'a SeriesStore,
    stats: StandardizeStats,
    window: usize,
    stride: usize,
    read_ahead: usize,
    next_start: usize,
    /// Per-series carry of raw columns `[buf_t0, t_loaded)`.
    buf: Vec<Vec<f64>>,
    buf_t0: usize,
    t_loaded: usize,
    done: bool,
}

impl WindowScan<'_> {
    /// The standardization statistics in effect for this scan.
    pub fn stats(&self) -> &StandardizeStats {
        &self.stats
    }

    /// Total windows this scan will yield (absent read errors).
    pub fn expected_windows(&self) -> usize {
        let l = self.store.manifest.length;
        if l < self.window {
            0
        } else {
            (l - self.window) / self.stride + 1
        }
    }

    /// Drops columns before `next_start` and loads time blocks until the
    /// next window is buffered (plus up to `read_ahead` blocks of
    /// prefetch). The chunks of one fill are fetched, checked and decoded
    /// concurrently, each straight into its own columns of the carry.
    fn fill(&mut self) -> Result<(), StoreError> {
        let store = self.store;
        let m = &store.manifest;
        // Trim the carry to the columns still needed. A stride that jumps
        // past everything loaded restarts the carry at the time block
        // holding the next window; blocks in between are never read.
        let keep_from = self.next_start;
        if keep_from >= self.t_loaded {
            let t0 = keep_from / m.chunk_len * m.chunk_len;
            for row in &mut self.buf {
                row.clear();
            }
            (self.buf_t0, self.t_loaded) = (t0, t0);
        } else if keep_from > self.buf_t0 {
            let k = keep_from - self.buf_t0;
            for row in &mut self.buf {
                row.drain(..k);
            }
            self.buf_t0 = keep_from;
        }
        let need = self.next_start + self.window;
        let cap = self.window + self.read_ahead * m.chunk_len;
        let mut t_end = self.t_loaded;
        while t_end < m.length && (t_end < need || t_end - self.buf_t0 + m.chunk_len <= cap) {
            t_end += m.cols_of(t_end / m.chunk_len);
        }
        let cells = store.cells(self.t_loaded / m.chunk_len..t_end.div_ceil(m.chunk_len));
        // Grow every row to its new width and hand each cell the slices of
        // its rows: disjoint column ranges, one per time block.
        let (loaded, width) = (self.t_loaded - self.buf_t0, t_end - self.buf_t0);
        let v_blocks = m.v_blocks();
        let mut targets: Vec<Vec<&mut [f64]>> = cells.iter().map(|_| Vec::new()).collect();
        for (i, row) in self.buf.iter_mut().enumerate() {
            row.resize(width, 0.0);
            let mut rest = &mut row[loaded..];
            for k in (i / m.chunk_series..cells.len()).step_by(v_blocks) {
                let (block, tail) = std::mem::take(&mut rest).split_at_mut(m.cols_of(cells[k].1));
                targets[k].push(block);
                rest = tail;
            }
        }
        let mut jobs: Vec<_> = cells
            .iter()
            .zip(targets)
            .map(|(&c, rows)| (c, rows, Ok(())))
            .collect();
        cf_par::par_each_mut(&mut jobs, |_, ((vi, ti), rows, res)| {
            *res = store.read_chunk_into(*vi, *ti, rows);
        });
        // The first bad chunk in scan order names the failure.
        jobs.into_iter().try_for_each(|(_, _, res)| res)?;
        self.t_loaded = t_end;
        Ok(())
    }
}

impl Iterator for WindowScan<'_> {
    type Item = Result<Tensor, StoreError>;

    fn next(&mut self) -> Option<Self::Item> {
        if self.done {
            return None;
        }
        let m = &self.store.manifest;
        if self.next_start + self.window > m.length {
            self.done = true;
            return None;
        }
        if self.t_loaded < self.next_start + self.window {
            if let Err(e) = self.fill() {
                self.done = true;
                return Some(Err(e));
            }
        }
        let off = self.next_start - self.buf_t0;
        let n = m.n_series;
        let mut data = Vec::with_capacity(n * self.window);
        for i in 0..n {
            let mean = self.stats.means[i];
            let std = self.stats.stds[i];
            for &v in &self.buf[i][off..off + self.window] {
                // The exact expression of the in-RAM standardize().
                data.push((v - mean) / std);
            }
        }
        self.next_start += self.stride;
        Some(
            Tensor::from_vec(vec![n, self.window], data).map_err(|e| StoreError::Invalid {
                detail: e.to_string(),
            }),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::storage::MemStorage;

    /// Deterministic pseudo-random series (no RNG dependency needed here).
    fn synth(n: usize, l: usize) -> Vec<Vec<f64>> {
        (0..n)
            .map(|i| {
                (0..l)
                    .map(|t| ((i * 31 + t * 7) as f64 * 0.137).sin() * (i + 1) as f64 + i as f64)
                    .collect()
            })
            .collect()
    }

    fn build_mem(
        rows: &[Vec<f64>],
        chunk_series: usize,
        chunk_len: usize,
        codec: &str,
    ) -> Arc<MemStorage> {
        let storage = Arc::new(MemStorage::new());
        let n = rows.len();
        let l = rows[0].len();
        let mut w = SeriesWriter::new(storage.clone(), n, chunk_series, chunk_len, codec).unwrap();
        for t in 0..l {
            let sample: Vec<f64> = rows.iter().map(|r| r[t]).collect();
            w.append(&sample).unwrap();
        }
        let manifest = w.finish().unwrap();
        assert_eq!(manifest.length, l);
        storage
    }

    fn build_store(
        rows: &[Vec<f64>],
        chunk_series: usize,
        chunk_len: usize,
        codec: &str,
    ) -> SeriesStore {
        SeriesStore::open(build_mem(rows, chunk_series, chunk_len, codec)).unwrap()
    }

    /// Serialises the tests that resize the global `cf-par` pool.
    fn pool_lock() -> std::sync::MutexGuard<'static, ()> {
        static LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());
        LOCK.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Rewrites the stored bytes of chunk `(vi, ti)` with `damage`.
    fn damage_chunk(storage: &MemStorage, vi: usize, ti: usize, damage: impl FnOnce(&mut [u8])) {
        let key = chunk_key(vi, ti);
        let mut bytes = storage.get(&key).unwrap();
        damage(&mut bytes);
        storage.put(&key, &bytes).unwrap();
    }

    /// Flips one payload bit: a checksum mismatch.
    fn flip_last_bit(bytes: &mut [u8]) {
        *bytes.last_mut().unwrap() ^= 0x10;
    }

    /// Overwrites the magic: a bad-magic error.
    fn break_magic(bytes: &mut [u8]) {
        bytes[0] = b'X';
    }

    #[test]
    fn write_read_roundtrip_bitwise() {
        // Length 103 with chunk_len 16 exercises a ragged tail block;
        // chunk_series 2 over 5 series exercises a ragged variable block.
        let rows = synth(5, 103);
        for codec in ["raw", "delta", "delta-varint"] {
            let store = build_store(&rows, 2, 16, codec);
            let all = store.read_all().unwrap();
            assert_eq!(all.shape(), &[5, 103]);
            for (i, row) in rows.iter().enumerate() {
                for (t, v) in row.iter().enumerate() {
                    assert_eq!(
                        all.row(i)[t].to_bits(),
                        v.to_bits(),
                        "codec {codec}, series {i}, t {t}"
                    );
                }
            }
        }
    }

    #[test]
    fn read_range_matches_read_all() {
        let rows = synth(3, 50);
        let store = build_store(&rows, 3, 8, "delta-varint");
        let all = store.read_all().unwrap();
        let mid = store.read_range(13, 29).unwrap();
        assert_eq!(mid.shape(), &[3, 16]);
        for i in 0..3 {
            assert_eq!(&all.row(i)[13..29], mid.row(i));
        }
        assert!(store.read_range(40, 40).is_err());
        assert!(store.read_range(0, 51).is_err());
    }

    #[test]
    fn stats_match_in_ram_folds_bitwise() {
        let rows = synth(4, 77);
        let store = build_store(&rows, 4, 10, "delta");
        let stats = store.stats().unwrap();
        for (i, row) in rows.iter().enumerate() {
            let mean = row.iter().sum::<f64>() / row.len() as f64;
            let var = row.iter().map(|v| (v - mean) * (v - mean)).sum::<f64>() / row.len() as f64;
            let std = var.sqrt().max(1e-12);
            assert_eq!(
                stats.means[i].to_bits(),
                mean.to_bits(),
                "mean of series {i}"
            );
            assert_eq!(stats.stds[i].to_bits(), std.to_bits(), "std of series {i}");
        }
    }

    #[test]
    fn windows_match_materialized_reference_bitwise() {
        let rows = synth(3, 61);
        let (window, stride) = (9, 4);
        for read_ahead in [1, 4] {
            let store = build_store(&rows, 2, 7, "delta-varint");
            let stats = store.stats().unwrap();
            let got: Vec<Tensor> = store
                .standardized_windows(window, stride, read_ahead)
                .unwrap()
                .collect::<Result<_, _>>()
                .unwrap();
            // Reference: standardize in RAM, then slice.
            let mut want = Vec::new();
            let mut start = 0;
            while start + window <= 61 {
                let mut data = Vec::new();
                for (i, row) in rows.iter().enumerate() {
                    for &v in &row[start..start + window] {
                        data.push((v - stats.means[i]) / stats.stds[i]);
                    }
                }
                want.push(data);
                start += stride;
            }
            assert_eq!(got.len(), want.len());
            assert_eq!(got.len(), {
                let scan = store
                    .standardized_windows(window, stride, read_ahead)
                    .unwrap();
                scan.expected_windows()
            });
            for (w, (g, wref)) in got.iter().zip(&want).enumerate() {
                for (a, b) in g.data().iter().zip(wref) {
                    assert_eq!(
                        a.to_bits(),
                        b.to_bits(),
                        "window {w}, read_ahead {read_ahead}"
                    );
                }
            }
        }
    }

    #[test]
    fn chunk_keys_are_stable() {
        assert_eq!(chunk_key(0, 0), "c0000_00000000.cfc");
        assert_eq!(chunk_key(3, 12), "c0003_00000012.cfc");
    }

    #[test]
    fn corrupt_chunk_is_detected_and_named() {
        let rows = synth(2, 20);
        let storage = Arc::new(MemStorage::new());
        {
            let s: Arc<dyn Storage> = Arc::clone(&storage) as Arc<dyn Storage>;
            let mut w = SeriesWriter::new(s, 2, 2, 8, "delta").unwrap();
            for (a, b) in rows[0].iter().zip(&rows[1]) {
                w.append(&[*a, *b]).unwrap();
            }
            w.finish().unwrap();
        }
        // Flip one payload bit in the second time block.
        let key = chunk_key(0, 1);
        let mut bytes = storage.get(&key).unwrap();
        let last = bytes.len() - 1;
        bytes[last] ^= 0x10;
        storage.put(&key, &bytes).unwrap();
        let store = SeriesStore::open(storage as Arc<dyn Storage>).unwrap();
        assert!(store.read_chunk(0, 0).is_ok(), "other chunks stay readable");
        let err = store.read_chunk(0, 1).unwrap_err();
        let msg = err.to_string();
        assert!(msg.contains("checksum"), "{msg}");
        assert!(msg.contains(&key), "error must name the chunk: {msg}");
        // The streaming paths propagate the same error (the stats pass
        // touches every chunk, so the scan fails at construction).
        assert!(store.read_all().is_err());
        assert!(store.standardized_windows(4, 2, 1).is_err());
    }

    /// Asserts `err` is the checksum failure of chunk `(vi, ti)`.
    fn assert_checksum_error_of(err: &StoreError, vi: usize, ti: usize, ctx: &str) {
        let msg = err.to_string();
        assert!(msg.contains(&chunk_key(vi, ti)), "{ctx}: {msg}");
        assert!(msg.contains("checksum"), "{ctx}: {msg}");
    }

    #[test]
    fn parallel_reads_report_the_first_bad_chunk_in_scan_order() {
        let _g = pool_lock();
        // 5 series on chunk_series 2 (3 variable blocks), 103 steps on
        // chunk_len 16 (7 time blocks, ragged tail).
        let rows = synth(5, 103);
        for threads in [1, 2, 4] {
            cf_par::set_threads(threads);
            let ctx = format!("{threads} threads");
            // Scan order is (ti, vi): chunk (2, 1) comes before (0, 2), though
            // a variable-major order would visit (0, 2) first.
            let storage = build_mem(&rows, 2, 16, "delta-varint");
            damage_chunk(&storage, 2, 1, flip_last_bit);
            damage_chunk(&storage, 0, 2, break_magic);
            let store = SeriesStore::open(storage.clone()).unwrap();
            assert_checksum_error_of(&store.stats().unwrap_err(), 2, 1, &ctx);
            let err = store.standardized_windows(9, 4, 2).err().unwrap();
            assert_checksum_error_of(&err, 2, 1, &ctx);
            assert_checksum_error_of(&store.read_all().unwrap_err(), 2, 1, &ctx);

            // Chunks damaged after the statistics passes fail only in the
            // window pass. read_ahead 8 loads every block in one batch.
            let storage = build_mem(&rows, 2, 16, "delta-varint");
            let store = SeriesStore::open(storage.clone()).unwrap();
            let mut scan = store.standardized_windows(9, 4, 8).unwrap();
            damage_chunk(&storage, 1, 4, flip_last_bit);
            damage_chunk(&storage, 0, 5, break_magic);
            let err = scan.next().unwrap().unwrap_err();
            assert_checksum_error_of(&err, 1, 4, &ctx);
            assert!(scan.next().is_none(), "{ctx}: a failed scan ends");
        }
    }

    #[test]
    fn ragged_grid_matches_in_ram_standardize_at_any_thread_count() {
        use cf_data::window::{standardize, windows};
        let _g = pool_lock();
        let rows = synth(5, 103);
        let series = Tensor::from_vec(vec![5, 103], rows.concat()).unwrap();
        // (chunk_len, window, stride): the second stride jumps past the
        // whole carry (window + read_ahead·chunk_len) between windows.
        for (chunk_len, window, stride) in [(16, 9, 4), (7, 3, 40)] {
            let want = windows(&standardize(&series), window, stride);
            for codec in ["raw", "delta-varint"] {
                let store = build_store(&rows, 2, chunk_len, codec);
                assert!(store.manifest().v_blocks() > 1);
                for threads in [1, 2, 4] {
                    cf_par::set_threads(threads);
                    let ctx = format!("chunk_len {chunk_len}, codec {codec}, {threads} threads");
                    let stats = store.stats().unwrap();
                    for (i, row) in rows.iter().enumerate() {
                        let mean = row.iter().sum::<f64>() / row.len() as f64;
                        let var = row.iter().map(|v| (v - mean) * (v - mean)).sum::<f64>()
                            / row.len() as f64;
                        assert_eq!(stats.means[i].to_bits(), mean.to_bits(), "{ctx}");
                        assert_eq!(stats.stds[i].to_bits(), var.sqrt().to_bits(), "{ctx}");
                    }
                    for read_ahead in [1, 3] {
                        let got: Vec<Tensor> = store
                            .standardized_windows(window, stride, read_ahead)
                            .unwrap()
                            .collect::<Result<_, _>>()
                            .unwrap();
                        assert_eq!(got.len(), want.len(), "{ctx}");
                        for (g, w) in got.iter().zip(&want) {
                            let bits = |t: &Tensor| t.data().iter().map(|v| v.to_bits()).collect();
                            let (g, w): (Vec<u64>, Vec<u64>) = (bits(g), bits(w));
                            assert_eq!(g, w, "{ctx}, read_ahead {read_ahead}");
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn writer_validates_input() {
        let storage: Arc<dyn Storage> = Arc::new(MemStorage::new());
        assert!(SeriesWriter::new(Arc::clone(&storage), 0, 1, 8, "raw").is_err());
        assert!(SeriesWriter::new(Arc::clone(&storage), 2, 1, 8, "lz4").is_err());
        let mut w = SeriesWriter::new(Arc::clone(&storage), 2, 1, 8, "raw").unwrap();
        assert!(w.append(&[1.0]).is_err(), "wrong sample arity");
        drop(w);
        let w = SeriesWriter::new(storage, 2, 1, 8, "raw").unwrap();
        assert!(w.finish().is_err(), "empty store rejected");
    }

    #[test]
    fn open_rejects_bad_manifests() {
        let storage = Arc::new(MemStorage::new());
        assert!(SeriesStore::open(Arc::clone(&storage) as Arc<dyn Storage>).is_err());
        storage.put(MANIFEST_KEY, b"not json").unwrap();
        let err = SeriesStore::open(Arc::clone(&storage) as Arc<dyn Storage>)
            .err()
            .expect("bad manifest must be rejected");
        assert!(err.to_string().contains("manifest"), "{err}");
        let bad = Manifest {
            magic: "WRONG".into(),
            n_series: 1,
            length: 1,
            chunk_series: 1,
            chunk_len: 1,
            codec: "raw".into(),
            dtype: "f64".into(),
        };
        storage
            .put(
                MANIFEST_KEY,
                serde_json::to_string(&bad).unwrap().as_bytes(),
            )
            .unwrap();
        assert!(SeriesStore::open(storage as Arc<dyn Storage>).is_err());
    }

    #[test]
    fn absurd_manifest_geometry_fails_on_read_without_allocating() {
        let storage = build_mem(&synth(2, 20), 2, 8, "delta-varint");
        let mut m = SeriesStore::open(storage.clone())
            .unwrap()
            .manifest()
            .clone();
        // ~2^41 samples per chunk cannot even be described by a chunk
        // header: open refuses the manifest.
        (m.chunk_len, m.length) = (1 << 40, 1 << 40);
        let json = serde_json::to_string(&m).unwrap();
        storage.put(MANIFEST_KEY, json.as_bytes()).unwrap();
        let err = SeriesStore::open(storage.clone()).err().expect("rejected");
        assert!(matches!(err, StoreError::Invalid { .. }), "{err}");
        // 2^27 samples per chunk fit a header, but the stored chunk's
        // header disagrees, and nothing is sized from the claim.
        (m.chunk_len, m.length) = (1 << 26, 1 << 26);
        let json = serde_json::to_string(&m).unwrap();
        storage.put(MANIFEST_KEY, json.as_bytes()).unwrap();
        let store = SeriesStore::open(storage).unwrap();
        let err = store.read_chunk(0, 0).unwrap_err().to_string();
        assert!(err.contains("manifest grid expects"), "{err}");
        assert!(store.stats().is_err());
    }

    #[test]
    fn chunk_raw_length_must_fit_the_u32_header_field() {
        // 8 · rows · cols ≤ u32::MAX: 2^29 − 1 samples fit, 2^29 do not.
        let at_limit = (u32::MAX / 8) as usize;
        assert!(check_chunk_bytes(1, at_limit).is_ok());
        assert!(check_chunk_bytes(at_limit, 1).is_ok());
        let err = check_chunk_bytes(1, at_limit + 1).unwrap_err().to_string();
        assert!(
            err.contains("1 rows") && err.contains("536870912 cols") && err.contains("4294967296"),
            "{err}"
        );
        assert!(check_chunk_bytes(usize::MAX, 2).is_err(), "overflow");

        // The writer refuses before it sizes its block buffer.
        let storage: Arc<dyn Storage> = Arc::new(MemStorage::new());
        let err = SeriesWriter::new(Arc::clone(&storage), 2, 2, 1 << 28, "raw")
            .err()
            .expect("over the limit");
        assert!(matches!(err, StoreError::Invalid { .. }), "{err}");
        assert!(err.to_string().contains("2 rows × 268435456 cols"), "{err}");

        // Open checks the largest chunk the grid can hold: a long
        // chunk_len over a short series is fine, a long series is not.
        let mem = build_mem(&synth(2, 20), 2, 8, "raw");
        let mut m = SeriesStore::open(mem.clone()).unwrap().manifest().clone();
        (m.chunk_len, m.length) = (1 << 40, at_limit / 2);
        mem.put(MANIFEST_KEY, serde_json::to_string(&m).unwrap().as_bytes())
            .unwrap();
        assert!(
            SeriesStore::open(mem.clone()).is_ok(),
            "exactly at the limit"
        );
        m.length = at_limit / 2 + 1;
        mem.put(MANIFEST_KEY, serde_json::to_string(&m).unwrap().as_bytes())
            .unwrap();
        let err = SeriesStore::open(mem).err().expect("just over the limit");
        assert!(matches!(err, StoreError::Invalid { .. }), "{err}");
    }
}
