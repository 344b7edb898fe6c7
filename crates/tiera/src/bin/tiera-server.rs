//! The Tiera server binary — the paper's deployment (§3): "When the server
//! starts up, it begins by reading the configuration file that is used to
//! indicate the different tiers (and their capacities) that would
//! constitute the instance, the size of the thread pool dedicated to
//! service client requests, the size of thread pool dedicated to service
//! responses and evaluate events, and the location to persistently store
//! metadata..."
//!
//! ```text
//! tiera-server --spec instance.tiera [--bind time:t=30s ...]
//!              [--listen 127.0.0.1:7427] [--threads 4]
//!              [--metadata-dir /var/lib/tiera] [--dump-spec]
//! ```
//!
//! Tier type names in the spec resolve against the simulated catalog
//! (`Memcached`, `MemcachedRemote`, `EBS`, `S3`, `EphemeralStorage`).

use std::process::exit;

use tiera::prelude::*;
use tiera::rpc::{ServerConfig, TieraServer};
use tiera::spec::{parse, print_spec, Compiler, ParamValue};

struct Args {
    spec_path: String,
    listen: String,
    threads: usize,
    bindings: Vec<(String, ParamValue)>,
    metadata_dir: Option<String>,
    dump_spec: bool,
    seed: u64,
}

fn usage() -> ! {
    eprintln!(
        "usage: tiera-server --spec <file> [--listen ADDR] [--threads N]\n\
         \x20                 [--bind time:NAME=30s | size:NAME=512M | percent:NAME=75]...\n\
         \x20                 [--metadata-dir DIR] [--seed N] [--dump-spec]"
    );
    exit(2)
}

fn parse_binding(arg: &str) -> Option<(String, ParamValue)> {
    let (kind, rest) = arg.split_once(':')?;
    let (name, value) = rest.split_once('=')?;
    let value = match kind {
        "time" => {
            let (digits, unit) = value.split_at(value.find(|c: char| !c.is_ascii_digit())?);
            let n: u64 = digits.parse().ok()?;
            let d = match unit {
                "ms" => SimDuration::from_millis(n),
                "s" | "sec" => SimDuration::from_secs(n),
                "min" => SimDuration::from_secs(n * 60),
                "h" => SimDuration::from_secs(n * 3600),
                _ => return None,
            };
            ParamValue::Duration(d)
        }
        "size" => {
            let (digits, unit) =
                value.split_at(value.find(|c: char| !c.is_ascii_digit()).unwrap_or(value.len()));
            let n: u64 = digits.parse().ok()?;
            let bytes = match unit {
                "" | "B" => n,
                "K" | "KB" => n << 10,
                "M" | "MB" => n << 20,
                "G" | "GB" => n << 30,
                _ => return None,
            };
            ParamValue::Size(bytes)
        }
        "percent" => ParamValue::Percent(value.parse().ok()?),
        _ => return None,
    };
    Some((name.to_string(), value))
}

fn parse_args() -> Args {
    let mut args = Args {
        spec_path: String::new(),
        listen: "127.0.0.1:7427".into(),
        threads: 4,
        bindings: Vec::new(),
        metadata_dir: None,
        dump_spec: false,
        seed: 1,
    };
    let mut it = std::env::args().skip(1);
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--spec" => args.spec_path = it.next().unwrap_or_else(|| usage()),
            "--listen" => args.listen = it.next().unwrap_or_else(|| usage()),
            "--threads" => {
                args.threads = it.next().and_then(|v| v.parse().ok()).unwrap_or_else(|| usage())
            }
            "--bind" => {
                let raw = it.next().unwrap_or_else(|| usage());
                match parse_binding(&raw) {
                    Some(b) => args.bindings.push(b),
                    None => {
                        eprintln!("bad --bind value: {raw}");
                        usage()
                    }
                }
            }
            "--metadata-dir" => args.metadata_dir = Some(it.next().unwrap_or_else(|| usage())),
            "--seed" => {
                args.seed = it.next().and_then(|v| v.parse().ok()).unwrap_or_else(|| usage())
            }
            "--dump-spec" => args.dump_spec = true,
            "--help" | "-h" => usage(),
            other => {
                eprintln!("unknown argument: {other}");
                usage()
            }
        }
    }
    if args.spec_path.is_empty() {
        usage()
    }
    args
}

fn main() {
    let args = parse_args();
    let source = match std::fs::read_to_string(&args.spec_path) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("cannot read {}: {e}", args.spec_path);
            exit(1)
        }
    };
    let spec = match parse(&source) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("{e}");
            exit(1)
        }
    };
    if args.dump_spec {
        print!("{}", print_spec(&spec));
        return;
    }

    let env = SimEnv::new(args.seed);
    let catalog = tiera::tiers::default_catalog(&env);
    let mut compiler = Compiler::new(&catalog, env.clone());
    for (name, value) in args.bindings {
        compiler = compiler.bind(name, value);
    }
    if let Some(dir) = &args.metadata_dir {
        compiler = compiler.metadata_dir(dir);
    }
    let instance = match compiler.compile(&spec) {
        Ok(i) => i,
        Err(e) => {
            eprintln!("{e}");
            exit(1)
        }
    };
    println!(
        "tiera-server: instance `{}` with tiers {:?} and {} rule(s)",
        instance.name(),
        instance.tier_names(),
        instance.policy().len()
    );
    let handle = match TieraServer::start(
        instance,
        &args.listen,
        ServerConfig { request_threads: args.threads, ..ServerConfig::default() },
    ) {
        Ok(h) => h,
        Err(e) => {
            eprintln!("cannot listen on {}: {e}", args.listen);
            exit(1)
        }
    };
    println!("listening on {} ({} request threads)", handle.addr(), args.threads);
    println!("press ctrl-c to stop");
    let (mut ticks_reported, mut conns_reported) = (0, 0);
    loop {
        std::thread::sleep(std::time::Duration::from_secs(1));
        let failures = handle.pump_failures();
        if failures > ticks_reported {
            eprintln!(
                "tiera-server: {failures} event tick(s) failed (first: {})",
                handle.first_pump_error().unwrap_or_default()
            );
            ticks_reported = failures;
        }
        let failures = handle.connection_errors();
        if failures > conns_reported {
            eprintln!(
                "tiera-server: {failures} connection(s) failed (first: {})",
                handle.first_connection_error().unwrap_or_default()
            );
            conns_reported = failures;
        }
    }
}
