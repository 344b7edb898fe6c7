//! Error types for the Tiera middleware.

use tiera_sim::SimDuration;

/// Result alias using [`TieraError`].
pub type Result<T> = std::result::Result<T, TieraError>;

/// Errors surfaced by Tiera instances and tiers.
#[derive(Debug)]
pub enum TieraError {
    /// The requested object does not exist in the instance.
    NoSuchObject(String),
    /// The named tier is not part of the instance.
    NoSuchTier(String),
    /// A tier rejected a write because it is out of capacity and no policy
    /// made room.
    TierFull {
        /// Tier that rejected the write.
        tier: String,
        /// Bytes the write needed.
        needed: u64,
        /// Bytes available.
        available: u64,
    },
    /// A storage operation timed out (e.g. a simulated outage, paper Fig 17).
    Timeout {
        /// Tier that timed out.
        tier: String,
        /// How long the client waited before giving up.
        waited: SimDuration,
    },
    /// The object's payload could not be decoded (decompression/decryption).
    Codec(String),
    /// The instance specification or reconfiguration request is invalid.
    InvalidConfig(String),
    /// Metadata persistence failed.
    Metadata(String),
    /// The object exists but none of its recorded locations is attached.
    LocationsUnavailable(String),
}

impl std::fmt::Display for TieraError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TieraError::NoSuchObject(k) => write!(f, "no such object: {k}"),
            TieraError::NoSuchTier(t) => write!(f, "no such tier: {t}"),
            TieraError::TierFull { tier, needed, available } => {
                write!(f, "tier {tier} full: need {needed} bytes, {available} available")
            }
            TieraError::Timeout { tier, waited } => {
                write!(f, "operation on tier {tier} timed out after {waited}")
            }
            TieraError::Codec(msg) => write!(f, "codec error: {msg}"),
            TieraError::InvalidConfig(msg) => write!(f, "invalid configuration: {msg}"),
            TieraError::Metadata(msg) => write!(f, "metadata error: {msg}"),
            TieraError::LocationsUnavailable(k) => {
                write!(f, "object {k} has no reachable location")
            }
        }
    }
}

impl std::error::Error for TieraError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages_are_informative() {
        let e = TieraError::TierFull { tier: "cache".into(), needed: 4096, available: 100 };
        let s = e.to_string();
        assert!(s.contains("cache") && s.contains("4096") && s.contains("100"));

        let e = TieraError::Timeout { tier: "ebs".into(), waited: SimDuration::from_secs(5) };
        assert!(e.to_string().contains("ebs"));
    }
}
