//! A [`Storage`] wrapper that counts what the store layer fetches.
//!
//! The store's own API reports no I/O, so the benchmark interposes this
//! wrapper between [`cf_store::SeriesStore`] and the real backend and
//! counts chunk reads and bytes. Counters are statistics only (relaxed
//! atomics); they publish no other data.

use cf_store::{series::chunk_key, Storage, StoreError};
use std::sync::atomic::{AtomicU64, Ordering};

/// Read counters of one [`CountingStorage`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ReadCounts {
    /// `get` calls on chunk keys (the manifest is excluded).
    pub chunk_reads: u64,
    /// Bytes returned by those chunk reads (encoded, as stored).
    pub chunk_bytes: u64,
}

/// Forwards to `inner`, counting reads.
pub struct CountingStorage<S> {
    inner: S,
    chunk_reads: AtomicU64,
    chunk_bytes: AtomicU64,
}

impl<S: Storage> CountingStorage<S> {
    pub fn new(inner: S) -> Self {
        Self {
            inner,
            chunk_reads: AtomicU64::new(0),
            chunk_bytes: AtomicU64::new(0),
        }
    }

    pub fn counts(&self) -> ReadCounts {
        ReadCounts {
            chunk_reads: self.chunk_reads.load(Ordering::Relaxed),
            chunk_bytes: self.chunk_bytes.load(Ordering::Relaxed),
        }
    }
}

/// Chunk keys end in [`chunk_key`]'s extension; the manifest's does not.
fn is_chunk_key(key: &str) -> bool {
    key.rsplit('.').next() == chunk_key(0, 0).rsplit('.').next()
}

impl<S: Storage> Storage for CountingStorage<S> {
    fn put(&self, key: &str, bytes: &[u8]) -> Result<(), StoreError> {
        self.inner.put(key, bytes)
    }

    fn get(&self, key: &str) -> Result<Vec<u8>, StoreError> {
        let bytes = self.inner.get(key)?;
        if is_chunk_key(key) {
            self.chunk_reads.fetch_add(1, Ordering::Relaxed);
            self.chunk_bytes
                .fetch_add(bytes.len() as u64, Ordering::Relaxed);
        }
        Ok(bytes)
    }

    fn exists(&self, key: &str) -> bool {
        self.inner.exists(key)
    }

    fn list(&self) -> Result<Vec<String>, StoreError> {
        self.inner.list()
    }

    fn delete(&self, key: &str) -> Result<(), StoreError> {
        self.inner.delete(key)
    }

    fn target(&self, key: &str) -> String {
        self.inner.target(key)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cf_store::{MemStorage, SeriesStore, SeriesWriter};
    use std::sync::Arc;

    /// A 2-series × 40-step store on a 1×10 chunk grid: 2 × 4 = 8 chunks.
    fn small_store() -> Arc<CountingStorage<MemStorage>> {
        let storage = Arc::new(CountingStorage::new(MemStorage::new()));
        let mut w = SeriesWriter::new(storage.clone(), 2, 1, 10, "raw").unwrap();
        for t in 0..40 {
            w.append(&[t as f64, (t * t) as f64]).unwrap();
        }
        let m = w.finish().unwrap();
        assert_eq!(m.v_blocks() * m.t_blocks(), 8);
        storage
    }

    #[test]
    fn writes_and_the_manifest_read_are_not_chunk_reads() {
        let storage = small_store();
        assert_eq!(storage.counts(), ReadCounts::default());
        SeriesStore::open(storage.clone()).unwrap();
        assert_eq!(storage.counts(), ReadCounts::default());
    }

    #[test]
    fn one_chunk_read_is_one_count_with_its_bytes() {
        let storage = small_store();
        let store = SeriesStore::open(storage.clone()).unwrap();
        store.read_chunk(1, 2).unwrap();
        let c = storage.counts();
        assert_eq!(c.chunk_reads, 1);
        let stored = storage.inner.get(&chunk_key(1, 2)).unwrap().len() as u64;
        assert_eq!(c.chunk_bytes, stored);
    }

    #[test]
    fn a_window_scan_reads_every_chunk_three_times() {
        // Two statistics passes, then the window pass.
        let storage = small_store();
        let store = SeriesStore::open(storage.clone()).unwrap();
        let windows = store
            .standardized_windows(5, 5, 1)
            .unwrap()
            .collect::<Result<Vec<_>, _>>()
            .unwrap();
        assert_eq!(windows.len(), 8);
        assert_eq!(storage.counts().chunk_reads, 3 * 8);
    }
}
