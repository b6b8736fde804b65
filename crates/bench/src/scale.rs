//! Experiment scales.

/// How large a world the experiments build.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// Seconds; for tests/CI.
    Smoke,
    /// Minutes; the RESULTS.md scale.
    Standard,
    /// Tens of minutes.
    Full,
}

impl Scale {
    /// Read from `PKGM_SCALE` (default [`Scale::Standard`]).
    pub fn from_env() -> Self {
        match std::env::var("PKGM_SCALE").as_deref() {
            Ok("smoke") => Scale::Smoke,
            Ok("full") => Scale::Full,
            _ => Scale::Standard,
        }
    }

    /// Short name for report headers.
    pub fn name(self) -> &'static str {
        match self {
            Scale::Smoke => "smoke",
            Scale::Standard => "standard",
            Scale::Full => "full",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names() {
        assert_eq!(Scale::Smoke.name(), "smoke");
        assert_eq!(Scale::Standard.name(), "standard");
        assert_eq!(Scale::Full.name(), "full");
    }
}
