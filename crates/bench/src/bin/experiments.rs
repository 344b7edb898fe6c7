//! Regenerates the paper's tables and figures.
//!
//! ```text
//! cargo run --release -p tiera-bench --bin experiments -- --all
//! cargo run --release -p tiera-bench --bin experiments -- --only fig07,fig14
//! cargo run --release -p tiera-bench --bin experiments -- --list
//! ```

use std::time::Instant;

use tiera_bench::experiments;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let all = experiments::all();

    if args.iter().any(|a| a == "--list") {
        for e in &all {
            println!("{:<8}  {}", e.id, e.title);
        }
        return;
    }

    let selected: Vec<&experiments::Experiment> = if args.iter().any(|a| a == "--all") {
        all.iter().collect()
    } else if let Some(pos) = args.iter().position(|a| a == "--only") {
        let Some(list) = args.get(pos + 1) else {
            eprintln!("--only requires a comma-separated list of ids (see --list)");
            std::process::exit(2);
        };
        let wanted: Vec<&str> = list.split(',').map(str::trim).collect();
        let picked: Vec<&experiments::Experiment> =
            all.iter().filter(|e| wanted.contains(&e.id)).collect();
        if picked.len() != wanted.len() {
            let known: Vec<&str> = all.iter().map(|e| e.id).collect();
            eprintln!("unknown experiment id in {wanted:?}; known: {known:?}");
            std::process::exit(2);
        }
        picked
    } else {
        eprintln!("usage: experiments --all | --only <ids> | --list");
        std::process::exit(2);
    };

    for e in selected {
        println!("\n================================================================");
        println!("{} — {}", e.id, e.title);
        println!("================================================================\n");
        let started = Instant::now();
        (e.run)();
        println!("\n[{} completed in {:.1}s wall time]", e.id, started.elapsed().as_secs_f64());
    }
}
