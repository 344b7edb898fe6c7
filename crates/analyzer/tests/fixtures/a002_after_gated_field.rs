//! Fixture: a `#[cfg(test)]` on a struct field gates that field only.
//! The shipping code after it — `bad`, which holds `registry.dedup`
//! (rank 56) while taking `registry.shard` (rank 50) — is still checked.

use tiera_support::sync::{rank, RwLock};

pub struct Reg {
    shards: RwLock<u32>,
    dedup: RwLock<u32>,
    #[cfg(test)]
    probes: u32,
}

impl Reg {
    pub fn build() -> Self {
        Self {
            shards: RwLock::named("registry.shard", rank::REGISTRY_SHARD, 0),
            dedup: RwLock::named("registry.dedup", rank::REGISTRY_DEDUP, 0),
            #[cfg(test)]
            probes: 0,
        }
    }

    pub fn bad(&self) {
        let d = self.dedup.write();
        let _s = self.shards.write();
        drop(d);
    }
}

#[cfg(test)]
mod tests {
    #[test]
    fn builds() {
        let _ = super::Reg::build();
    }
}
