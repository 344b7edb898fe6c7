//! `tiera-bench rpc-smoke`: a fast end-to-end round trip of the RPC plane
//! against a live in-process server. No timing — wall-clock numbers for
//! the same path are the `rpc.*` rungs of `benchmark/`.

use std::sync::Arc;

use tiera_core::InstanceBuilder;
use tiera_rpc::{PipelinedClient, ServerConfig, TieraClient, TieraServer};
use tiera_sim::SimEnv;
use tiera_tiers::MemoryTier;

/// Requests the smoke keeps in flight on the pipelined connection.
const PIPELINE_DEPTH: usize = 128;

/// End-to-end smoke of the RPC plane (`tiera-bench rpc-smoke`): pipelined
/// echo, a full window of pipelined puts and their gets, the batch round
/// trip, and the legacy single-shot framing, all against one live server.
/// Returns an error description instead of panicking so the CLI can exit
/// nonzero.
pub fn rpc_smoke() -> Result<(), String> {
    fn e(stage: &'static str) -> impl Fn(std::io::Error) -> String {
        move |err| format!("{stage}: {err}")
    }
    let env = SimEnv::new(7);
    let inst = InstanceBuilder::new("rpc-smoke", env.clone())
        .tier(Arc::new(MemoryTier::same_az("mem", 1 << 30, &env)))
        .build()
        .map_err(|err| format!("build instance: {err}"))?;
    let server = TieraServer::start(inst, "127.0.0.1:0", ServerConfig::default())
        .map_err(|err| format!("start server: {err}"))?;
    let addr = server.addr();

    // Pipelined echo.
    let mut piped = PipelinedClient::connect(addr).map_err(e("pipelined connect"))?;
    piped.ping().map_err(e("pipelined ping"))?;

    // A full pipeline window of puts, then their gets.
    let tokens: Vec<_> = (0..PIPELINE_DEPTH)
        .map(|i| piped.submit_put(&format!("k{i}"), format!("v{i}").as_bytes()))
        .collect::<Result<_, _>>()
        .map_err(e("pipelined submit"))?;
    for token in tokens {
        piped.wait_put(token).map_err(e("pipelined put"))?;
    }
    let gets: Vec<_> = (0..PIPELINE_DEPTH)
        .map(|i| piped.submit_get(&format!("k{i}")))
        .collect::<Result<_, _>>()
        .map_err(e("pipelined submit"))?;
    for (i, token) in gets.into_iter().enumerate() {
        let (value, _) = piped.wait_get(token).map_err(e("pipelined get"))?;
        if value != format!("v{i}").as_bytes() {
            return Err(format!("pipelined get k{i}: wrong bytes"));
        }
    }

    // Batch round trip, including a per-item miss.
    let outcomes = piped
        .multi_put(&[("ba", b"1".as_ref()), ("bb", b"2".as_ref())])
        .map_err(e("multi_put"))?;
    if outcomes.iter().any(|o| o.is_err()) {
        return Err("multi_put reported a failed item".into());
    }
    let fetched = piped
        .multi_get(&["ba", "missing", "bb"])
        .map_err(e("multi_get"))?;
    if fetched[0].is_err() || fetched[2].is_err() || fetched[1].is_ok() {
        return Err("multi_get per-item outcomes wrong".into());
    }
    let deleted = piped.multi_delete(&["ba", "bb"]).map_err(e("multi_delete"))?;
    if deleted.iter().any(|o| o.is_err()) {
        return Err("multi_delete reported a failed item".into());
    }

    // Legacy single-shot framing against the same server.
    let mut old = TieraClient::connect(addr).map_err(e("v1 connect"))?;
    old.ping().map_err(e("v1 ping"))?;
    old.put("legacy", b"ok").map_err(e("v1 put"))?;
    let (value, _) = old.get("legacy").map_err(e("v1 get"))?;
    if value != b"ok" {
        return Err("v1 get: wrong bytes".into());
    }
    server.shutdown();
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rpc_smoke_round_trips_against_a_live_server() {
        rpc_smoke().unwrap();
    }
}
