//! Output checks and output fingerprints.
//!
//! Every check is one attempted operation; a check that does not hold is
//! a failed one. The verdict of each check is printed, so a run's output
//! says what was compared, not only whether it passed.

/// Tally of the checks a run made.
#[derive(Debug, Default)]
pub struct Checks {
    pub attempted: u64,
    pub failed: u64,
    /// Verdict lines of the first pass; later passes repeat the same
    /// checks and report only their failures.
    pub quiet: bool,
}

impl Checks {
    /// Records one check and prints its verdict.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
        }
        if !ok || !self.quiet {
            println!("check {}: {}", if ok { "ok  " } else { "FAIL" }, what());
        }
    }

    /// Records `attempted` operations of one kind, `failed` of them failed,
    /// with a single verdict line.
    pub fn tally(&mut self, attempted: u64, failed: u64, what: &str) {
        self.attempted += attempted;
        self.failed += failed;
        if failed > 0 || !self.quiet {
            let verdict = if failed == 0 { "ok  " } else { "FAIL" };
            println!("check {verdict}: {what}: {failed} of {attempted} failed");
        }
    }

    /// Checks `actual == expected`, printing both.
    pub fn equal<T: PartialEq + std::fmt::Debug>(&mut self, what: &str, actual: T, expected: T) {
        let ok = actual == expected;
        self.check(ok, || format!("{what}: {actual:?} (expected {expected:?})"));
    }
}

/// The bytes of a run's outputs, hashed with FNV-1a 64
/// ([`scap_cluster::hash::fnv1a64`]); order-sensitive.
#[derive(Clone, Debug, Default)]
pub struct Fingerprint(Vec<u8>);

impl Fingerprint {
    pub fn bytes(&mut self, data: &[u8]) -> &mut Self {
        self.0.extend_from_slice(data);
        self
    }

    pub fn u64(&mut self, v: u64) -> &mut Self {
        self.bytes(&v.to_le_bytes())
    }

    pub fn f64(&mut self, v: f64) -> &mut Self {
        self.u64(v.to_bits())
    }

    pub fn bits(&mut self, bits: &[bool]) -> &mut Self {
        self.u64(bits.len() as u64);
        for chunk in bits.chunks(8) {
            let byte = chunk
                .iter()
                .enumerate()
                .fold(0u8, |acc, (i, &b)| acc | (u8::from(b) << i));
            self.bytes(&[byte]);
        }
        self
    }

    pub fn hex(&self) -> String {
        format!("{:016x}", scap_cluster::hash::fnv1a64(&self.0))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fingerprint_is_order_sensitive_and_stable() {
        let mut a = Fingerprint::default();
        a.u64(1).u64(2);
        let mut b = Fingerprint::default();
        b.u64(2).u64(1);
        assert_ne!(a.hex(), b.hex());
        let mut c = Fingerprint::default();
        c.u64(1).u64(2);
        assert_eq!(a.hex(), c.hex());
        // The FNV-1a offset basis hashes the empty input.
        assert_eq!(Fingerprint::default().hex(), "cbf29ce484222325");
    }

    #[test]
    fn failed_checks_are_counted() {
        let mut c = Checks {
            quiet: true,
            ..Checks::default()
        };
        c.equal("same", 3, 3);
        c.equal("differs", 3, 4);
        assert_eq!((c.attempted, c.failed), (2, 1));
    }
}
