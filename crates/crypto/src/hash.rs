//! SHA-256 (FIPS 180-4) and the expanders built on it.
//!
//! SINTRA used SHA-1; this implementation uses SHA-256 throughout.
//! The compression function has two kernels: a portable one, and on
//! x86-64 CPUs with the SHA extensions one built from the SHA-NI
//! instructions. Each call picks the kernel from the CPU's cached feature
//! flags; both give bit-identical states, and the tests pin them to each
//! other.

use sintra_bigint::Ubig;

/// Incremental SHA-256 (FIPS 180-4).
///
/// ```
/// use sintra_crypto::hash::Sha256;
/// let d = Sha256::digest(b"abc");
/// assert_eq!(
///     d[..4],
///     [0xba, 0x78, 0x16, 0xbf],
/// );
/// ```
#[derive(Debug, Clone)]
pub struct Sha256 {
    state: [u32; 8],
    buffer: [u8; 64],
    buffer_len: usize,
    total_len: u64,
}

const SHA256_K: [u32; 64] = [
    0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b, 0x59f111f1, 0x923f82a4, 0xab1c5ed5,
    0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3, 0x72be5d74, 0x80deb1fe, 0x9bdc06a7, 0xc19bf174,
    0xe49b69c1, 0xefbe4786, 0x0fc19dc6, 0x240ca1cc, 0x2de92c6f, 0x4a7484aa, 0x5cb0a9dc, 0x76f988da,
    0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7, 0xc6e00bf3, 0xd5a79147, 0x06ca6351, 0x14292967,
    0x27b70a85, 0x2e1b2138, 0x4d2c6dfc, 0x53380d13, 0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85,
    0xa2bfe8a1, 0xa81a664b, 0xc24b8b70, 0xc76c51a3, 0xd192e819, 0xd6990624, 0xf40e3585, 0x106aa070,
    0x19a4c116, 0x1e376c08, 0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a, 0x5b9cca4f, 0x682e6ff3,
    0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208, 0x90befffa, 0xa4506ceb, 0xbef9a3f7, 0xc67178f2,
];

impl Default for Sha256 {
    fn default() -> Self {
        Self::new()
    }
}

impl Sha256 {
    /// Creates a fresh hasher.
    pub fn new() -> Self {
        Sha256 {
            state: [
                0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a, 0x510e527f, 0x9b05688c, 0x1f83d9ab,
                0x5be0cd19,
            ],
            buffer: [0; 64],
            buffer_len: 0,
            total_len: 0,
        }
    }

    /// One-shot convenience digest.
    pub fn digest(data: &[u8]) -> [u8; 32] {
        let mut h = Sha256::new();
        h.update(data);
        h.finalize()
    }

    /// Absorbs more input. Whole blocks are compressed straight from
    /// `data`; only a partial block is buffered.
    pub fn update(&mut self, mut data: &[u8]) {
        self.total_len = self.total_len.wrapping_add(data.len() as u64);
        if self.buffer_len > 0 {
            let take = (64 - self.buffer_len).min(data.len());
            self.buffer[self.buffer_len..self.buffer_len + take].copy_from_slice(&data[..take]);
            self.buffer_len += take;
            data = &data[take..];
            if self.buffer_len < 64 {
                return;
            }
            compress_blocks(&mut self.state, std::slice::from_ref(&self.buffer));
            self.buffer_len = 0;
        }
        let (blocks, rest) = data.as_chunks::<64>();
        if !blocks.is_empty() {
            compress_blocks(&mut self.state, blocks);
        }
        self.buffer[..rest.len()].copy_from_slice(rest);
        self.buffer_len = rest.len();
    }

    /// Completes the hash and returns the 32-byte digest.
    pub fn finalize(mut self) -> [u8; 32] {
        let bit_len = self.total_len.wrapping_mul(8);
        let used = self.buffer_len;
        self.buffer[used] = 0x80;
        self.buffer[used + 1..].fill(0);
        if used >= 56 {
            // No room for the length: it goes in a block of its own.
            compress_blocks(&mut self.state, std::slice::from_ref(&self.buffer));
            self.buffer = [0; 64];
        }
        self.buffer[56..].copy_from_slice(&bit_len.to_be_bytes());
        compress_blocks(&mut self.state, std::slice::from_ref(&self.buffer));
        let mut out = [0u8; 32];
        for (bytes, word) in out.chunks_exact_mut(4).zip(self.state) {
            bytes.copy_from_slice(&word.to_be_bytes());
        }
        out
    }
}

/// Compresses `blocks` into `state` with the fastest kernel this CPU runs.
fn compress_blocks(state: &mut [u32; 8], blocks: &[[u8; 64]]) {
    if !compress_sha_ni(state, blocks) {
        compress_portable(state, blocks);
    }
}

/// The portable kernel: FIPS 180-4 §6.2.2 on plain `u32`s.
fn compress_portable(state: &mut [u32; 8], blocks: &[[u8; 64]]) {
    for block in blocks {
        let mut w = [0u32; 64];
        for (i, chunk) in block.chunks_exact(4).enumerate() {
            w[i] = u32::from_be_bytes(chunk.try_into().expect("4-byte chunk"));
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
            let temp1 = h
                .wrapping_add(s1)
                .wrapping_add(ch)
                .wrapping_add(SHA256_K[i])
                .wrapping_add(w[i]);
            let s0 = a.rotate_right(2) ^ a.rotate_right(13) ^ a.rotate_right(22);
            let maj = (a & b) ^ (a & c) ^ (b & c);
            let temp2 = s0.wrapping_add(maj);
            h = g;
            g = f;
            f = e;
            e = d.wrapping_add(temp1);
            d = c;
            c = b;
            b = a;
            a = temp1.wrapping_add(temp2);
        }
        for (s, v) in state.iter_mut().zip([a, b, c, d, e, f, g, h]) {
            *s = s.wrapping_add(v);
        }
    }
}

/// Runs the SHA-NI kernel if this CPU has the SHA extensions and returns
/// whether it ran. `is_x86_feature_detected!` caches what it finds, so
/// after the first call each check is one atomic load.
#[cfg(target_arch = "x86_64")]
fn compress_sha_ni(state: &mut [u32; 8], blocks: &[[u8; 64]]) -> bool {
    let detected = is_x86_feature_detected!("sha")
        && is_x86_feature_detected!("sse2")
        && is_x86_feature_detected!("ssse3")
        && is_x86_feature_detected!("sse4.1");
    if detected {
        // SAFETY: `detected` has just confirmed that this CPU supports
        // sha, sse2, ssse3 and sse4.1, every feature `sha_ni_kernel` is
        // compiled for.
        #[allow(unsafe_code)]
        unsafe {
            sha_ni_kernel(state, blocks)
        };
    }
    detected
}

/// Without x86-64 there is no SHA-NI kernel to run.
#[cfg(not(target_arch = "x86_64"))]
fn compress_sha_ni(_state: &mut [u32; 8], _blocks: &[[u8; 64]]) -> bool {
    false
}

/// The SHA-NI kernel. The state lives in two registers, `abef` and
/// `cdgh` (lanes high to low, as `sha256rnds2` takes them); each
/// `sha256rnds2` does two rounds and `sha256msg1`/`sha256msg2` extend
/// the message schedule four words at a time. Words enter and leave
/// through `_mm_set_epi32` and `_mm_extract_epi32`, so the kernel needs
/// no pointer loads or stores.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "sha,sse2,ssse3,sse4.1")]
fn sha_ni_kernel(state: &mut [u32; 8], blocks: &[[u8; 64]]) {
    use std::arch::x86_64::{
        __m128i, _mm_add_epi32, _mm_alignr_epi8, _mm_extract_epi32, _mm_set_epi32,
        _mm_sha256msg1_epu32, _mm_sha256msg2_epu32, _mm_sha256rnds2_epu32, _mm_shuffle_epi32,
    };

    let lanes = |w3: u32, w2: u32, w1: u32, w0: u32| {
        _mm_set_epi32(w3 as i32, w2 as i32, w1 as i32, w0 as i32)
    };
    let [a, b, c, d, e, f, g, h] = *state;
    let mut abef = lanes(a, b, e, f);
    let mut cdgh = lanes(c, d, g, h);

    for block in blocks {
        let (abef_in, cdgh_in) = (abef, cdgh);
        let (words, _) = block.as_chunks::<4>();
        let word = |i: usize| u32::from_be_bytes(words[i]);
        // `msg[j]` holds schedule words 4j..4j+4, the first in the low lane.
        let mut msg: [__m128i; 4] = std::array::from_fn(|j| {
            lanes(
                word(4 * j + 3),
                word(4 * j + 2),
                word(4 * j + 1),
                word(4 * j),
            )
        });
        for quad in 0..16 {
            let w = if quad < 4 {
                msg[quad]
            } else {
                // W[t] from W[t-16..t-13] (msg1), W[t-7..t-4] (alignr)
                // and W[t-4..t] (msg2).
                let [m0, m1, m2, m3] = msg;
                let next = _mm_sha256msg2_epu32(
                    _mm_add_epi32(_mm_sha256msg1_epu32(m0, m1), _mm_alignr_epi8::<4>(m3, m2)),
                    m3,
                );
                msg = [m1, m2, m3, next];
                next
            };
            let k = &SHA256_K[4 * quad..4 * quad + 4];
            let wk = _mm_add_epi32(w, lanes(k[3], k[2], k[1], k[0]));
            // Two rounds leave the old A,B,E,F as the new C,D,G,H, so
            // writing each result over the other register keeps the
            // names right after every pair of calls.
            cdgh = _mm_sha256rnds2_epu32(cdgh, abef, wk);
            abef = _mm_sha256rnds2_epu32(abef, cdgh, _mm_shuffle_epi32::<0x0E>(wk));
        }
        abef = _mm_add_epi32(abef, abef_in);
        cdgh = _mm_add_epi32(cdgh, cdgh_in);
    }

    *state = [
        _mm_extract_epi32::<3>(abef) as u32,
        _mm_extract_epi32::<2>(abef) as u32,
        _mm_extract_epi32::<3>(cdgh) as u32,
        _mm_extract_epi32::<2>(cdgh) as u32,
        _mm_extract_epi32::<1>(abef) as u32,
        _mm_extract_epi32::<0>(abef) as u32,
        _mm_extract_epi32::<1>(cdgh) as u32,
        _mm_extract_epi32::<0>(cdgh) as u32,
    ];
}

/// Deterministically expands domain-separated input into `len` bytes using
/// SHA-256 in counter mode. Used as the KDF / random-oracle expander for
/// hash-to-group, FDH padding and coin output.
///
/// Block `i` is `SHA-256(len(domain) ‖ domain ‖ input ‖ i)`, so the
/// prefix is hashed once and its state cloned per block.
pub fn expand(domain: &[u8], input: &[u8], len: usize) -> Vec<u8> {
    let mut prefix = Sha256::new();
    prefix.update(&(domain.len() as u32).to_be_bytes());
    prefix.update(domain);
    prefix.update(input);
    let mut out = Vec::with_capacity(len);
    let mut counter: u32 = 0;
    while out.len() < len {
        let mut h = prefix.clone();
        h.update(&counter.to_be_bytes());
        out.extend_from_slice(&h.finalize());
        counter += 1;
    }
    out.truncate(len);
    out
}

/// Hashes domain-separated input to an integer in `[0, bound)`.
///
/// The output is statistically close to uniform because 128 extra bits are
/// sampled before the final reduction.
pub fn hash_to_ubig(domain: &[u8], input: &[u8], bound: &Ubig) -> Ubig {
    let bytes = (bound.bit_length() as usize).div_ceil(8) + 16;
    let raw = expand(domain, input, bytes);
    &Ubig::from_be_bytes(&raw) % bound
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn hex(bytes: &[u8]) -> String {
        bytes.iter().map(|b| format!("{b:02x}")).collect()
    }

    #[test]
    fn sha256_known_answers() {
        // FIPS / NIST test vectors.
        assert_eq!(
            hex(&Sha256::digest(b"")),
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"
        );
        assert_eq!(
            hex(&Sha256::digest(b"abc")),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"
        );
        assert_eq!(
            hex(&Sha256::digest(
                b"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq"
            )),
            "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1"
        );
    }

    #[test]
    fn sha256_million_a() {
        let mut h = Sha256::new();
        let chunk = [b'a'; 1000];
        for _ in 0..1000 {
            h.update(&chunk);
        }
        assert_eq!(
            hex(&h.finalize()),
            "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0"
        );
    }

    #[test]
    fn sha256_incremental_matches_oneshot() {
        let data: Vec<u8> = (0..=255u8).cycle().take(1000).collect();
        for split in [0usize, 1, 55, 56, 63, 64, 65, 119, 120, 500, 999, 1000] {
            let mut h = Sha256::new();
            h.update(&data[..split]);
            h.update(&data[split..]);
            assert_eq!(h.finalize(), Sha256::digest(&data), "split at {split}");
        }
    }

    /// The dispatcher runs SHA-NI exactly when the CPU's flags list the
    /// SHA extensions and the SSE levels the kernel is compiled for.
    #[cfg(target_os = "linux")]
    #[test]
    fn sha_ni_runs_exactly_when_the_cpu_reports_it() {
        let info = std::fs::read_to_string("/proc/cpuinfo").expect("read /proc/cpuinfo");
        let flags = info
            .lines()
            .find(|l| l.starts_with("flags"))
            .and_then(|l| l.split_once(':'))
            .map_or("", |(_, flags)| flags);
        let reported = ["sha_ni", "ssse3", "sse4_1"]
            .iter()
            .all(|want| flags.split_whitespace().any(|f| f == *want));
        let mut state = Sha256::new().state;
        assert_eq!(compress_sha_ni(&mut state, &[[0; 64]]), reported);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        // Both kernels from the same random state over the same random
        // blocks, the SHA-NI one in two calls split at a random block.
        #[test]
        fn kernels_agree(
            start in prop::collection::vec(any::<u32>(), 8),
            data in prop::collection::vec(any::<u8>(), 0..=8192),
            split in any::<usize>(),
        ) {
            let start: [u32; 8] = start.try_into().expect("eight words");
            let (blocks, _) = data.as_chunks::<64>();
            let split = split % (blocks.len() + 1);
            let mut portable = start;
            compress_portable(&mut portable, blocks);
            let mut sha_ni = start;
            if !compress_sha_ni(&mut sha_ni, &blocks[..split]) {
                eprintln!("kernels_agree: this CPU has no SHA-NI; compared nothing");
                return;
            }
            prop_assert!(compress_sha_ni(&mut sha_ni, &blocks[split..]));
            prop_assert_eq!(sha_ni, portable);
        }
    }

    #[test]
    fn expand_is_deterministic_and_domain_separated() {
        let a = expand(b"domA", b"input", 100);
        let b = expand(b"domA", b"input", 100);
        let c = expand(b"domB", b"input", 100);
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert_eq!(a.len(), 100);
        // Prefix property: shorter expansion is a prefix of longer.
        assert_eq!(expand(b"domA", b"input", 10), a[..10]);
    }

    /// `expand` is the counter-mode construction it documents, each block
    /// hashed from scratch, for every input length up to 200 bytes (prefixes
    /// across the first block boundaries) and output length up to 300.
    #[test]
    fn expand_matches_the_naive_construction() {
        let data: Vec<u8> = (0..200u32).map(|i| (i * 37 + 11) as u8).collect();
        let naive = |input: &[u8], len: usize| {
            let mut out = Vec::new();
            for counter in 0u32.. {
                if out.len() >= len {
                    break;
                }
                let mut h = Sha256::new();
                h.update(&(b"dom".len() as u32).to_be_bytes());
                h.update(b"dom");
                h.update(input);
                h.update(&counter.to_be_bytes());
                out.extend_from_slice(&h.finalize());
            }
            out.truncate(len);
            out
        };
        for input_len in 0..=200 {
            let input = &data[..input_len];
            let want = naive(input, 300);
            for len in 1..=300 {
                assert_eq!(
                    expand(b"dom", input, len),
                    want[..len],
                    "{input_len}, {len}"
                );
            }
        }
    }

    #[test]
    fn hash_to_ubig_in_range() {
        let bound = Ubig::from(1_000_003u64);
        for i in 0..50u32 {
            let v = hash_to_ubig(b"test", &i.to_be_bytes(), &bound);
            assert!(v < bound);
        }
    }
}
