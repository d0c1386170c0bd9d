//! Chunk compression codecs.
//!
//! A chunk's payload is a sequence of little-endian `u64` words (the bit
//! patterns of its `f64` samples, or pairs of `f32` samples). A
//! [`Pipeline`] is an ordered list of [`Codec`] stages applied on write
//! and unwound in reverse on read. Stages are exactly invertible on the
//! byte level — compression never touches numeric values, only their
//! encoding — so the store's bitwise-reproducibility story is unaffected
//! by the codec choice.
//!
//! Two stages ship:
//!
//! * [`Codec::DeltaXor`] — XORs each 8-byte word with its predecessor.
//!   Smooth trajectories (sign, exponent, and high mantissa bits change
//!   slowly between consecutive samples) turn into words full of leading
//!   zero bytes.
//! * [`Codec::Varint`] — LEB128 variable-length integers over the 8-byte
//!   words. On its own it does nothing useful for floating-point data;
//!   after `DeltaXor` the zero-heavy words shrink to 1–3 bytes.
//!
//! The named pipelines are `"raw"` (no stages), `"delta"` (`DeltaXor`),
//! and `"delta-varint"` (`DeltaXor` then `Varint`). The pipeline name is
//! recorded in the store manifest, so readers never guess.
//!
//! [`Pipeline::encode`] and [`Pipeline::decode`] run the stages one after
//! another over whole byte buffers; they are the reference. The chunk
//! store uses fused forms instead, which run every stage per word in one
//! loop, so a chunk costs no intermediate buffer on either side. Tests
//! pin the fused forms to the reference, byte for byte.

use crate::StoreError;

/// One invertible byte-transform stage.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Codec {
    /// XOR each little-endian `u64` word with the previous word (the first
    /// word passes through). Input length must be a multiple of 8.
    DeltaXor,
    /// LEB128 varint encoding of each little-endian `u64` word. Input
    /// length must be a multiple of 8; output is variable-length.
    Varint,
}

impl Codec {
    fn encode(self, bytes: &[u8]) -> Result<Vec<u8>, StoreError> {
        let words = as_words(bytes)?;
        Ok(match self {
            Codec::DeltaXor => {
                let mut out = Vec::with_capacity(bytes.len());
                let mut prev = 0u64;
                for w in words {
                    out.extend_from_slice(&(w ^ prev).to_le_bytes());
                    prev = w;
                }
                out
            }
            Codec::Varint => {
                // Worst case 10 bytes per word; typical (post-delta) far less.
                let mut out = Vec::with_capacity(bytes.len() / 2);
                for w in words {
                    put_varint(&mut out, w);
                }
                out
            }
        })
    }

    fn decode(self, bytes: &[u8]) -> Result<Vec<u8>, StoreError> {
        match self {
            Codec::DeltaXor => {
                let words = as_words(bytes)?;
                let mut out = Vec::with_capacity(bytes.len());
                let mut prev = 0u64;
                for w in words {
                    let orig = w ^ prev;
                    out.extend_from_slice(&orig.to_le_bytes());
                    prev = orig;
                }
                Ok(out)
            }
            Codec::Varint => {
                let mut out = Vec::with_capacity(bytes.len() * 2);
                let mut pos = 0;
                while pos < bytes.len() {
                    out.extend_from_slice(&take_varint(bytes, &mut pos)?.to_le_bytes());
                }
                Ok(out)
            }
        }
    }
}

/// Appends `w` as an LEB128 varint (1–10 bytes).
#[inline]
fn put_varint(out: &mut Vec<u8>, mut w: u64) {
    while w >= 0x80 {
        out.push(w as u8 | 0x80);
        w >>= 7;
    }
    out.push(w as u8);
}

/// Reads one LEB128 varint starting at `bytes[*pos]` and advances `pos`
/// past it. A word that runs off the end of `bytes`, or whose bits do not
/// fit a `u64` (a 10th byte above `0x01`, or an 11th byte), is an error.
#[inline]
fn take_varint(bytes: &[u8], pos: &mut usize) -> Result<u64, StoreError> {
    let mut w = 0u64;
    let mut shift = 0u32;
    loop {
        let Some(&byte) = bytes.get(*pos) else {
            return Err(StoreError::Invalid {
                detail: "varint stream ends mid-word".into(),
            });
        };
        *pos += 1;
        let bits = u64::from(byte & 0x7F);
        // Byte 10 carries bit 63 only; anything above it, or a further
        // continuation, would be silently shifted out.
        if shift == 63 && (bits > 1 || byte & 0x80 != 0) {
            return Err(StoreError::Invalid {
                detail: "varint word overflows u64".into(),
            });
        }
        w |= bits << shift;
        if byte & 0x80 == 0 {
            return Ok(w);
        }
        shift += 7;
    }
}

fn as_words(bytes: &[u8]) -> Result<impl Iterator<Item = u64> + '_, StoreError> {
    if !bytes.len().is_multiple_of(8) {
        return Err(StoreError::Invalid {
            detail: format!("codec input length {} is not a multiple of 8", bytes.len()),
        });
    }
    Ok(bytes
        .chunks_exact(8)
        .map(|c| u64::from_le_bytes(c.try_into().unwrap())))
}

/// An ordered list of codec stages, applied left-to-right on encode and
/// right-to-left on decode.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Pipeline {
    stages: Vec<Codec>,
    name: &'static str,
}

impl Pipeline {
    /// Looks up a named pipeline: `"raw"`, `"delta"`, or `"delta-varint"`.
    pub fn by_name(name: &str) -> Result<Self, StoreError> {
        let (stages, name) = match name {
            "raw" => (vec![], "raw"),
            "delta" => (vec![Codec::DeltaXor], "delta"),
            "delta-varint" => (vec![Codec::DeltaXor, Codec::Varint], "delta-varint"),
            other => {
                return Err(StoreError::Invalid {
                    detail: format!(
                        "unknown codec {other:?} (expected raw, delta, or delta-varint)"
                    ),
                })
            }
        };
        Ok(Self { stages, name })
    }

    /// The pipeline's registered name (what the manifest records).
    pub fn name(&self) -> &'static str {
        self.name
    }

    /// Applies every stage in order.
    pub fn encode(&self, bytes: &[u8]) -> Result<Vec<u8>, StoreError> {
        let mut cur = None;
        for stage in &self.stages {
            let input = cur.as_deref().unwrap_or(bytes);
            cur = Some(stage.encode(input)?);
        }
        Ok(cur.unwrap_or_else(|| bytes.to_vec()))
    }

    /// Unwinds every stage in reverse order.
    pub fn decode(&self, bytes: &[u8]) -> Result<Vec<u8>, StoreError> {
        let mut cur = None;
        for stage in self.stages.iter().rev() {
            let input = cur.as_deref().unwrap_or(bytes);
            cur = Some(stage.decode(input)?);
        }
        Ok(cur.unwrap_or_else(|| bytes.to_vec()))
    }

    fn has(&self, stage: Codec) -> bool {
        self.stages.contains(&stage)
    }

    /// Encodes `words` through every stage in one loop, appending to `out`.
    /// Produces exactly the bytes [`Pipeline::encode`] makes from the
    /// words' little-endian bytes.
    pub(crate) fn encode_words(&self, words: impl IntoIterator<Item = u64>, out: &mut Vec<u8>) {
        let (delta, varint) = (self.has(Codec::DeltaXor), self.has(Codec::Varint));
        let mut prev = 0u64;
        for w in words {
            let d = if delta { w ^ prev } else { w };
            prev = w;
            if varint {
                put_varint(out, d);
            } else {
                out.extend_from_slice(&d.to_le_bytes());
            }
        }
    }

    /// Decodes an encoded payload in one loop (varint → XOR-undelta →
    /// `f64::from_bits`), handing each sample to `sink` in order with no
    /// intermediate buffer. Returns the number of samples. Rejects every
    /// stream [`Pipeline::decode`] rejects, and any payload that does not
    /// end on a whole word.
    pub(crate) fn decode_each(
        &self,
        bytes: &[u8],
        mut sink: impl FnMut(f64),
    ) -> Result<usize, StoreError> {
        let delta = self.has(Codec::DeltaXor);
        let mut prev = 0u64;
        let mut count = 0;
        let mut push = |w: u64| {
            prev = if delta { prev ^ w } else { w };
            sink(f64::from_bits(prev));
            count += 1;
        };
        if self.has(Codec::Varint) {
            let mut pos = 0;
            while pos < bytes.len() {
                push(take_varint(bytes, &mut pos)?);
            }
        } else {
            as_words(bytes)?.for_each(push);
        }
        Ok(count)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn f64_bytes(vals: &[f64]) -> Vec<u8> {
        vals.iter().flat_map(|v| v.to_le_bytes()).collect()
    }

    fn decode_f64(p: &Pipeline, bytes: &[u8]) -> Result<Vec<f64>, StoreError> {
        let mut out = Vec::new();
        let n = p.decode_each(bytes, |v| out.push(v))?;
        assert_eq!(n, out.len());
        Ok(out)
    }

    #[test]
    fn named_pipelines_roundtrip() {
        let smooth: Vec<f64> = (0..256).map(|i| (i as f64 * 0.01).sin() * 3.0).collect();
        let bytes = f64_bytes(&smooth);
        for name in ["raw", "delta", "delta-varint"] {
            let p = Pipeline::by_name(name).unwrap();
            assert_eq!(p.name(), name);
            let enc = p.encode(&bytes).unwrap();
            let dec = p.decode(&enc).unwrap();
            assert_eq!(dec, bytes, "pipeline {name} must be exactly invertible");
        }
    }

    #[test]
    fn delta_varint_compresses_smooth_series() {
        // A smooth trajectory: consecutive f64 words share their high bytes,
        // so delta+varint should beat raw by a wide margin.
        let smooth: Vec<f64> = (0..4096).map(|i| 8.0 + (i as f64 * 0.002).sin()).collect();
        let bytes = f64_bytes(&smooth);
        let enc = Pipeline::by_name("delta-varint")
            .unwrap()
            .encode(&bytes)
            .unwrap();
        assert!(
            enc.len() * 10 < bytes.len() * 9,
            "expected >10% saving, got {} of {} bytes",
            enc.len(),
            bytes.len()
        );
    }

    #[test]
    fn extreme_bit_patterns_roundtrip() {
        let vals = [
            0.0f64,
            -0.0,
            f64::INFINITY,
            f64::NEG_INFINITY,
            f64::NAN,
            f64::MIN_POSITIVE,
            f64::MAX,
            -1.5e-300,
        ];
        let bytes = f64_bytes(&vals);
        for name in ["delta", "delta-varint"] {
            let p = Pipeline::by_name(name).unwrap();
            let dec = p.decode(&p.encode(&bytes).unwrap()).unwrap();
            // Compare bytes (not values): NaN payloads must survive too.
            assert_eq!(dec, bytes, "{name}");
        }
    }

    #[test]
    fn rejects_bad_input() {
        assert!(Pipeline::by_name("zstd").is_err());
        let p = Pipeline::by_name("delta").unwrap();
        assert!(p.encode(&[1, 2, 3]).is_err(), "length not multiple of 8");
        let pv = Pipeline::by_name("delta-varint").unwrap();
        // A truncated varint stream must error, not silently drop a word.
        let enc = pv.encode(&f64_bytes(&[1.0, 2.0, 3.0])).unwrap();
        assert!(pv.decode(&enc[..enc.len() - 1]).is_err());
    }

    #[test]
    fn varint_rejects_overflow() {
        // 10 continuation bytes push past 64 bits.
        let bad = [0xFFu8; 11];
        assert!(Codec::Varint.decode(&bad).is_err());
    }

    #[test]
    fn varint_rejects_tenth_byte_above_bit_63() {
        let pv = Pipeline::by_name("delta-varint").unwrap();
        // Nine full bytes carry bits 0..=62; a 10th byte of 0x01 sets bit 63
        // and is the largest legal word.
        let mut max = vec![0xFFu8; 9];
        max.push(0x01);
        assert_eq!(
            Codec::Varint.decode(&max).unwrap(),
            u64::MAX.to_le_bytes().to_vec()
        );
        assert_eq!(decode_f64(&pv, &max).unwrap()[0].to_bits(), u64::MAX);
        // 0x02 in the 10th byte would be bit 64: it must not be dropped.
        for tenth in [0x02u8, 0x7F, 0x81] {
            let mut bad = vec![0xFFu8; 9];
            bad.push(tenth);
            for err in [
                Codec::Varint.decode(&bad).unwrap_err(),
                decode_f64(&pv, &bad).unwrap_err(),
            ] {
                assert!(
                    matches!(&err, StoreError::Invalid { detail } if detail.contains("overflows")),
                    "10th byte {tenth:#04x}: {err}"
                );
            }
        }
    }

    #[test]
    fn fused_paths_match_staged_pipelines() {
        let mut vals: Vec<f64> = (0..300).map(|i| (i as f64 * 0.013).cos() * 7.5).collect();
        vals.extend([f64::NAN, -0.0, f64::MAX, f64::MIN_POSITIVE, 0.0]);
        let bytes = f64_bytes(&vals);
        for name in ["raw", "delta", "delta-varint"] {
            let p = Pipeline::by_name(name).unwrap();
            let staged = p.encode(&bytes).unwrap();
            let mut fused = Vec::new();
            p.encode_words(vals.iter().map(|v| v.to_bits()), &mut fused);
            assert_eq!(fused, staged, "{name} encode");
            let dec = decode_f64(&p, &staged).unwrap();
            assert_eq!(f64_bytes(&dec), bytes, "{name} decode");
            // A payload cut mid-word never decodes to samples.
            let cut = &staged[..staged.len() - 1];
            assert!(decode_f64(&p, cut).is_err(), "{name}: truncated payload");
        }
    }
}
