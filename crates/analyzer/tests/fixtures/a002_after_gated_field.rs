//! Fixture: a `#[cfg(test)]` on a struct field gates that field only.
//! The shipping code after it — `bad`, which holds `registry.order`
//! (rank 52) while taking `registry.shard` (rank 50) — is still checked.

use tiera_support::sync::{rank, RwLock};

pub struct Reg {
    shards: RwLock<u32>,
    order: RwLock<u32>,
    #[cfg(test)]
    probes: u32,
}

impl Reg {
    pub fn build() -> Self {
        Self {
            shards: RwLock::named("registry.shard", rank::REGISTRY_SHARD, 0),
            order: RwLock::named("registry.order", rank::REGISTRY_ORDER, 0),
            #[cfg(test)]
            probes: 0,
        }
    }

    pub fn bad(&self) {
        let o = self.order.write();
        let _s = self.shards.write();
        drop(o);
    }
}

#[cfg(test)]
mod tests {
    #[test]
    fn builds() {
        let _ = super::Reg::build();
    }
}
