//! SHA-256, implemented locally for content-addressed cache keys.
//!
//! The offline build environment has no `sha2` crate; this is the standard
//! FIPS 180-4 construction. It only needs to be correct and stable — cache
//! keys are equality tokens, not security boundaries — but using the real
//! SHA-256 keeps key collisions out of the question and makes cache entries
//! externally checkable (`sha256sum` over the recorded key material).

#[rustfmt::skip]
const K: [u32; 64] = [
    0x428a_2f98, 0x7137_4491, 0xb5c0_fbcf, 0xe9b5_dba5,
    0x3956_c25b, 0x59f1_11f1, 0x923f_82a4, 0xab1c_5ed5,
    0xd807_aa98, 0x1283_5b01, 0x2431_85be, 0x550c_7dc3,
    0x72be_5d74, 0x80de_b1fe, 0x9bdc_06a7, 0xc19b_f174,
    0xe49b_69c1, 0xefbe_4786, 0x0fc1_9dc6, 0x240c_a1cc,
    0x2de9_2c6f, 0x4a74_84aa, 0x5cb0_a9dc, 0x76f9_88da,
    0x983e_5152, 0xa831_c66d, 0xb003_27c8, 0xbf59_7fc7,
    0xc6e0_0bf3, 0xd5a7_9147, 0x06ca_6351, 0x1429_2967,
    0x27b7_0a85, 0x2e1b_2138, 0x4d2c_6dfc, 0x5338_0d13,
    0x650a_7354, 0x766a_0abb, 0x81c2_c92e, 0x9272_2c85,
    0xa2bf_e8a1, 0xa81a_664b, 0xc24b_8b70, 0xc76c_51a3,
    0xd192_e819, 0xd699_0624, 0xf40e_3585, 0x106a_a070,
    0x19a4_c116, 0x1e37_6c08, 0x2748_774c, 0x34b0_bcb5,
    0x391c_0cb3, 0x4ed8_aa4a, 0x5b9c_ca4f, 0x682e_6ff3,
    0x748f_82ee, 0x78a5_636f, 0x84c8_7814, 0x8cc7_0208,
    0x90be_fffa, 0xa450_6ceb, 0xbef9_a3f7, 0xc671_78f2,
];

const H0: [u32; 8] = [
    0x6a09_e667,
    0xbb67_ae85,
    0x3c6e_f372,
    0xa54f_f53a,
    0x510e_527f,
    0x9b05_688c,
    0x1f83_d9ab,
    0x5be0_cd19,
];

fn compress(state: &mut [u32; 8], block: &[u8]) {
    debug_assert_eq!(block.len(), 64);
    let mut w = [0u32; 64];
    for (i, chunk) in block.chunks_exact(4).enumerate() {
        w[i] = u32::from_be_bytes([chunk[0], chunk[1], chunk[2], chunk[3]]);
    }
    for i in 16..64 {
        let s0 = w[i - 15].rotate_right(7) ^ w[i - 15].rotate_right(18) ^ (w[i - 15] >> 3);
        let s1 = w[i - 2].rotate_right(17) ^ w[i - 2].rotate_right(19) ^ (w[i - 2] >> 10);
        w[i] = w[i - 16]
            .wrapping_add(s0)
            .wrapping_add(w[i - 7])
            .wrapping_add(s1);
    }
    let [mut a, mut b, mut c, mut d, mut e, mut f, mut g, mut h] = *state;
    for i in 0..64 {
        let s1 = e.rotate_right(6) ^ e.rotate_right(11) ^ e.rotate_right(25);
        let ch = (e & f) ^ (!e & g);
        let t1 = h
            .wrapping_add(s1)
            .wrapping_add(ch)
            .wrapping_add(K[i])
            .wrapping_add(w[i]);
        let s0 = a.rotate_right(2) ^ a.rotate_right(13) ^ a.rotate_right(22);
        let maj = (a & b) ^ (a & c) ^ (b & c);
        let t2 = s0.wrapping_add(maj);
        h = g;
        g = f;
        f = e;
        e = d.wrapping_add(t1);
        d = c;
        c = b;
        b = a;
        a = t1.wrapping_add(t2);
    }
    for (s, v) in state.iter_mut().zip([a, b, c, d, e, f, g, h]) {
        *s = s.wrapping_add(v);
    }
}

/// Computes the SHA-256 digest of `data`.
#[must_use]
pub(crate) fn sha256(data: &[u8]) -> [u8; 32] {
    let mut state = H0;
    let mut blocks = data.chunks_exact(64);
    for block in blocks.by_ref() {
        compress(&mut state, block);
    }
    // Padding: 0x80, zeros, 64-bit big-endian bit length.
    let rem = blocks.remainder();
    let bit_len = (data.len() as u64).wrapping_mul(8);
    let mut tail = [0u8; 128];
    tail[..rem.len()].copy_from_slice(rem);
    tail[rem.len()] = 0x80;
    let tail_len = if rem.len() < 56 { 64 } else { 128 };
    tail[tail_len - 8..tail_len].copy_from_slice(&bit_len.to_be_bytes());
    for block in tail[..tail_len].chunks_exact(64) {
        compress(&mut state, block);
    }
    let mut out = [0u8; 32];
    for (chunk, word) in out.chunks_exact_mut(4).zip(state) {
        chunk.copy_from_slice(&word.to_be_bytes());
    }
    out
}

/// SHA-256 digest as lowercase hex.
#[must_use]
pub fn sha256_hex(data: &[u8]) -> String {
    to_hex(&sha256(data))
}

/// Renders a digest as lowercase hex.
#[must_use]
pub(crate) fn to_hex(digest: &[u8; 32]) -> String {
    const HEX: &[u8; 16] = b"0123456789abcdef";
    let mut out = String::with_capacity(64);
    for &byte in digest {
        out.push(char::from(HEX[usize::from(byte >> 4)]));
        out.push(char::from(HEX[usize::from(byte & 0xf)]));
    }
    out
}

/// A 64-bit checksum of `data`, eight bytes at a time: the packed cache's
/// guard against bit rot in stored payloads.
///
/// Each step maps `(state, word)` to a new state bijectively in either
/// argument, so changing the bytes of any one aligned eight-byte word always
/// changes the result. Wider damage is caught unless it happens to collide;
/// the checksum guards against accidents, not adversaries. The length is
/// folded in first, and the zero-padded tail is the last word. This is an on-disk format: [`crate::packed`] records it in
/// every index line, so changing the function orphans every cache entry.
#[must_use]
pub(crate) fn checksum64(data: &[u8]) -> u64 {
    const MUL: u64 = 0x9e37_79b9_7f4a_7c15;
    const SEED: u64 = 0x4c54_5246_5041_434b; // "LTRFPACK"
    let step = |state: u64, word: u64| (state ^ word).wrapping_mul(MUL).rotate_left(29);
    let mut words = data.chunks_exact(8);
    let mut state = (data.len() as u64 ^ SEED).wrapping_mul(MUL);
    for word in &mut words {
        state = step(
            state,
            u64::from_le_bytes(word.try_into().expect("eight-byte chunk")),
        );
    }
    let mut tail = [0u8; 8];
    tail[..words.remainder().len()].copy_from_slice(words.remainder());
    state = step(state, u64::from_le_bytes(tail));
    // Final avalanche, so nearby payloads get unrelated checksums.
    state ^= state >> 33;
    state = state.wrapping_mul(0xff51_afd7_ed55_8ccd);
    state ^ (state >> 33)
}

/// Folds a digest into a 64-bit seed (the first eight digest bytes).
#[must_use]
pub(crate) fn digest_to_seed(digest: &[u8; 32]) -> u64 {
    let mut bytes = [0u8; 8];
    bytes.copy_from_slice(&digest[..8]);
    u64::from_be_bytes(bytes)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// FIPS 180-4 test vectors.
    #[test]
    fn known_vectors() {
        assert_eq!(
            sha256_hex(b""),
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"
        );
        assert_eq!(
            sha256_hex(b"abc"),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"
        );
        assert_eq!(
            sha256_hex(b"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq"),
            "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1"
        );
    }

    /// The checksum is recorded on disk, so its values are pinned, and any
    /// single-bit flip in a payload must change it.
    #[test]
    fn checksum_is_pinned_and_catches_every_bit_flip() {
        assert_eq!(checksum64(b""), 0xe47b_2a1b_8603_bb83);
        assert_eq!(checksum64(b"{\"x\":1}"), 0x7c08_50a9_293e_973b);
        assert_ne!(checksum64(b"\0"), checksum64(b""), "the length is mixed in");
        let payload: Vec<u8> = (0..61u8).map(|i| i.wrapping_mul(37)).collect();
        let clean = checksum64(&payload);
        for bit in 0..payload.len() * 8 {
            let mut flipped = payload.clone();
            flipped[bit / 8] ^= 1 << (bit % 8);
            assert_ne!(checksum64(&flipped), clean, "bit {bit} flipped unnoticed");
        }
    }

    #[test]
    fn padding_boundaries() {
        // Lengths straddling the 55/56-byte padding boundary and block sizes.
        for len in [54, 55, 56, 57, 63, 64, 65, 127, 128, 129] {
            let data = vec![0xA5u8; len];
            // Self-consistency: incremental vs whole (same function here, but
            // ensures no panic and stable output across calls).
            assert_eq!(sha256(&data), sha256(&data));
        }
    }
}
