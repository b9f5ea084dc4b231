//! The one stable hash of the workspace: 64-bit FNV-1a.
//!
//! Its values are written to disk (journal and page-cache headers, journal
//! directory names) and route table names to index partitions, so they
//! must be the same in every process, on every platform and under every
//! toolchain — which `std`'s `DefaultHasher` does not promise.

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// FNV-1a over `bytes`, starting from the offset basis XOR `salt` (`0` for
/// plain FNV-1a; a non-zero salt seeds the hash with an earlier one).
pub fn fnv1a(salt: u64, bytes: &[u8]) -> u64 {
    let mut hash = FNV_OFFSET ^ salt;
    for &byte in bytes {
        hash ^= u64::from(byte);
        hash = hash.wrapping_mul(FNV_PRIME);
    }
    hash
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matches_the_published_fnv1a_vectors() {
        assert_eq!(fnv1a(0, b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a(0, b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a(0, b"foobar"), 0x8594_4171_f739_67e8);
    }

    #[test]
    fn a_salt_seeds_the_hash() {
        assert_ne!(fnv1a(1, b"a"), fnv1a(0, b"a"));
        assert_eq!(fnv1a(FNV_OFFSET, b""), 0);
    }
}
