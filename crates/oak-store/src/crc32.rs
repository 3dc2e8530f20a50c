//! CRC-32 (IEEE 802.3, polynomial `0xEDB88320`), slicing-by-8.
//!
//! Every WAL frame carries a CRC over its payload so recovery can tell a
//! torn or bit-flipped tail from valid history — and so does every
//! replication envelope, in both directions, and the whole
//! multi-megabyte payload of a snapshot. Eight tables, built at compile
//! time, let the loop fold eight input bytes per step instead of one; no
//! external crate is involved.

/// `TABLES[0]` is the classic bytewise table; `TABLES[k][b]` is the CRC
/// of byte `b` followed by `k` zero bytes.
const fn build_tables() -> [[u32; 256]; 8] {
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
            let prev = tables[k - 1][i];
            tables[k][i] = tables[0][(prev & 0xFF) as usize] ^ (prev >> 8);
            i += 1;
        }
        k += 1;
    }
    tables
}

const TABLES: [[u32; 256]; 8] = build_tables();

/// The CRC-32 checksum of `data`.
pub fn crc32(data: &[u8]) -> u32 {
    let mut crc = !0u32;
    let mut chunks = data.chunks_exact(8);
    for chunk in &mut chunks {
        let lo = u32::from_le_bytes([chunk[0], chunk[1], chunk[2], chunk[3]]) ^ crc;
        let hi = u32::from_le_bytes([chunk[4], chunk[5], chunk[6], chunk[7]]);
        crc = TABLES[7][(lo & 0xFF) as usize]
            ^ TABLES[6][((lo >> 8) & 0xFF) as usize]
            ^ TABLES[5][((lo >> 16) & 0xFF) as usize]
            ^ TABLES[4][(lo >> 24) as usize]
            ^ TABLES[3][(hi & 0xFF) as usize]
            ^ TABLES[2][((hi >> 8) & 0xFF) as usize]
            ^ TABLES[1][((hi >> 16) & 0xFF) as usize]
            ^ TABLES[0][(hi >> 24) as usize];
    }
    for &byte in chunks.remainder() {
        crc = TABLES[0][((crc ^ u32::from(byte)) & 0xFF) as usize] ^ (crc >> 8);
    }
    !crc
}

#[cfg(test)]
mod tests {
    use super::{crc32, TABLES};

    /// The one-byte-per-step loop the sliced one replaced: the reference.
    fn crc32_bytewise(data: &[u8]) -> u32 {
        let mut crc = !0u32;
        for &byte in data {
            crc = TABLES[0][((crc ^ u32::from(byte)) & 0xFF) as usize] ^ (crc >> 8);
        }
        !crc
    }

    #[test]
    fn known_vectors() {
        // Canonical check values for CRC-32/IEEE.
        for crc in [crc32, crc32_bytewise] {
            assert_eq!(crc(b""), 0);
            assert_eq!(crc(b"123456789"), 0xCBF4_3926);
            assert_eq!(
                crc(b"The quick brown fox jumps over the lazy dog"),
                0x414F_A339
            );
        }
    }

    #[test]
    fn sliced_matches_bytewise_at_every_length() {
        // xorshift64*: arbitrary bytes, the same on every run.
        let mut state = 0x9E37_79B9_7F4A_7C15u64;
        let data: Vec<u8> = (0..4096)
            .map(|_| {
                state ^= state >> 12;
                state ^= state << 25;
                state ^= state >> 27;
                (state.wrapping_mul(0x2545_F491_4F6C_DD1D) >> 56) as u8
            })
            .collect();
        for len in 0..=data.len() {
            // From the front and from the back: two alignments of the
            // 8-byte steps against the same length.
            for slice in [&data[..len], &data[data.len() - len..]] {
                assert_eq!(crc32(slice), crc32_bytewise(slice), "length {len}");
            }
        }
    }

    #[test]
    fn sensitive_to_single_bit() {
        let a = crc32(b"oak-store");
        let b = crc32(b"oak-stors");
        assert_ne!(a, b);
    }
}
