//! The simulated-results digest: 64-bit FNV-1a over the
//! `RunReport::to_json()` text of every simulation, in run order.
//!
//! `to_json` is the scheduler- and backend-invariant golden artifact of
//! the simulator, so a change that only makes the simulator faster
//! leaves the digest unchanged, and two commits can be compared by the
//! digest they print.

/// A running FNV-1a hash.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Digest(u64);

impl Default for Digest {
    fn default() -> Digest {
        Digest(0xcbf2_9ce4_8422_2325)
    }
}

impl Digest {
    /// Folds `bytes` into the hash, followed by a record separator so
    /// that concatenations of different splits hash differently.
    pub fn record(&mut self, bytes: &[u8]) {
        for &b in bytes.iter().chain(std::iter::once(&0x1e)) {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    /// The hash value.
    pub fn value(self) -> u64 {
        self.0
    }
}

/// Formats a digest the way the benchmark prints it.
pub fn hex(value: u64) -> String {
    format!("{value:016x}")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn separator_distinguishes_splits() {
        let (mut a, mut b) = (Digest::default(), Digest::default());
        a.record(b"ab");
        a.record(b"c");
        b.record(b"a");
        b.record(b"bc");
        assert_ne!(a, b);
    }
}
