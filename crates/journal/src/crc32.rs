//! CRC-32 (IEEE 802.3 polynomial, the `cksum`/zlib variant) over byte
//! slices.  Table-driven, slicing-by-8 and allocation-free: eight bytes are
//! folded per step through eight tables, the bytes that do not fill a step
//! one at a time through the first.  The tables are computed at compile
//! time so the crate stays dependency-free.

/// `TABLES[0]` is the classic byte-at-a-time table; `TABLES[k][b]` is the
/// CRC of byte `b` followed by `k` zero bytes.
const fn make_tables() -> [[u32; 256]; 8] {
    let mut tables = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 != 0 {
                (crc >> 1) ^ 0xEDB8_8320
            } else {
                crc >> 1
            };
            bit += 1;
        }
        tables[0][i] = crc;
        i += 1;
    }
    let mut k = 1;
    while k < 8 {
        let mut i = 0;
        while i < 256 {
            let previous = tables[k - 1][i];
            tables[k][i] = (previous >> 8) ^ tables[0][(previous & 0xFF) as usize];
            i += 1;
        }
        k += 1;
    }
    tables
}

static TABLES: [[u32; 256]; 8] = make_tables();

/// Folds one byte into a running (inverted) CRC.
fn step(crc: u32, byte: u8) -> u32 {
    (crc >> 8) ^ TABLES[0][((crc ^ u32::from(byte)) & 0xFF) as usize]
}

/// The CRC-32 checksum of `bytes`.
pub fn crc32(bytes: &[u8]) -> u32 {
    let mut crc = 0xFFFF_FFFFu32;
    let mut words = bytes.chunks_exact(8);
    for word in &mut words {
        let low = crc ^ u32::from_le_bytes([word[0], word[1], word[2], word[3]]);
        let high = u32::from_le_bytes([word[4], word[5], word[6], word[7]]);
        let byte = |value: u32, shift: u32| ((value >> shift) & 0xFF) as usize;
        crc = TABLES[7][byte(low, 0)]
            ^ TABLES[6][byte(low, 8)]
            ^ TABLES[5][byte(low, 16)]
            ^ TABLES[4][byte(low, 24)]
            ^ TABLES[3][byte(high, 0)]
            ^ TABLES[2][byte(high, 8)]
            ^ TABLES[1][byte(high, 16)]
            ^ TABLES[0][byte(high, 24)];
    }
    !words.remainder().iter().fold(crc, |crc, &b| step(crc, b))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn known_vectors() {
        // Standard test vectors for the IEEE polynomial.
        assert_eq!(crc32(b""), 0x0000_0000);
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(
            crc32(b"The quick brown fox jumps over the lazy dog"),
            0x414F_A339
        );
    }

    #[test]
    fn single_bit_flip_changes_checksum() {
        let a = crc32(b"hello world");
        let b = crc32(b"hello worle");
        assert_ne!(a, b);
    }
}
