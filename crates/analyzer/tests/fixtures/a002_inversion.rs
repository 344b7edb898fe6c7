//! Fixture: the registry pair acquired against its declared ranks.
//! `bad` holds `registry.dedup` (rank 56) while taking `registry.shard`
//! (rank 50): an A002 inversion, and together with `good` an A001 cycle.

use tiera_support::sync::{rank, RwLock};

pub struct Reg {
    shards: RwLock<u32>,
    dedup: RwLock<u32>,
}

impl Reg {
    pub fn build() -> Self {
        Self {
            shards: RwLock::named("registry.shard", rank::REGISTRY_SHARD, 0),
            dedup: RwLock::named("registry.dedup", rank::REGISTRY_DEDUP, 0),
        }
    }

    pub fn good(&self) {
        let s = self.shards.write();
        let _d = self.dedup.write();
        drop(s);
    }

    pub fn bad(&self) {
        let d = self.dedup.write();
        let _s = self.shards.write();
        drop(d);
    }
}
