//! Scalability sweep: the same workload on machines of 1–16 nodes.
//! PRISM's design goal is scalability through localized memory
//! management; this regenerates the speedup curve for one application
//! under S-COMA and LA-NUMA page modes, recording simulated cycles and
//! host wall-clock per machine size.
//!
//! ```text
//! scaling [app] [small|paper]     (default: FFT at paper scale)
//! ```
//!
//! An unknown application or scale exits 2 with the reason.
//!
//! Everything is also written to `BENCH_scaling.json` (see
//! `prism_bench::bench_out` for where it lands).

use std::time::Instant;

use prism_bench::cli::{parse_app, parse_scale};
use prism_core::sim::json::Json;
use prism_core::{MachineConfig, PolicyKind, Simulation};
use prism_workloads::{app, AppId, Scale};

const JSON_FILE: &str = "BENCH_scaling.json";

struct SizeRow {
    nodes: usize,
    scoma_cycles: u64,
    lanuma_cycles: u64,
    scoma_wall_ms: f64,
    lanuma_wall_ms: f64,
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let parsed = (
        args.first().map_or(Ok(AppId::Fft), |a| parse_app(a)),
        args.get(1).map_or(Ok(Scale::Paper), |s| parse_scale(s)),
    );
    let (id, scale) = match parsed {
        (Ok(id), Ok(scale)) => (id, scale),
        (Err(e), _) | (_, Err(e)) => {
            eprintln!("scaling: {e}");
            std::process::exit(2);
        }
    };
    let workload = app(id, scale);
    println!(
        "scaling {} across machine sizes (4 processors per node)",
        id
    );
    println!(
        "{:>6} {:>6} {:>16} {:>16} {:>9} {:>9} {:>10} {:>10}",
        "nodes",
        "procs",
        "SCOMA cycles",
        "LANUMA cycles",
        "SCOMA ×",
        "LANUMA ×",
        "SCOMA ms",
        "LANUMA ms"
    );
    let mut rows: Vec<SizeRow> = Vec::new();
    let mut base: Option<(u64, u64)> = None;
    for nodes in [1usize, 2, 4, 8, 16] {
        let cfg = MachineConfig::builder()
            .nodes(nodes)
            .procs_per_node(4)
            .build();
        let trace = workload.generate(cfg.total_procs());
        let wall = Instant::now();
        let scoma = Simulation::new(cfg.clone(), PolicyKind::Scoma)
            .run_trace(&trace)
            .expect("scoma run");
        let scoma_wall_ms = wall.elapsed().as_secs_f64() * 1e3;
        let wall = Instant::now();
        let lanuma = Simulation::new(cfg, PolicyKind::Lanuma)
            .run_trace(&trace)
            .expect("lanuma run");
        let lanuma_wall_ms = wall.elapsed().as_secs_f64() * 1e3;
        let (s, l) = (scoma.exec_cycles.as_u64(), lanuma.exec_cycles.as_u64());
        let (s0, l0) = *base.get_or_insert((s, l));
        println!(
            "{:>6} {:>6} {:>16} {:>16} {:>9.2} {:>9.2} {:>10.1} {:>10.1}",
            nodes,
            nodes * 4,
            s,
            l,
            s0 as f64 / s as f64,
            l0 as f64 / l as f64,
            scoma_wall_ms,
            lanuma_wall_ms
        );
        rows.push(SizeRow {
            nodes,
            scoma_cycles: s,
            lanuma_cycles: l,
            scoma_wall_ms,
            lanuma_wall_ms,
        });
    }

    prism_bench::write_bench_json(JSON_FILE, &render_json(id, &rows));
}

fn render_json(id: AppId, rows: &[SizeRow]) -> Json {
    let sizes = rows.iter().map(|r| {
        Json::obj([
            ("nodes", r.nodes.into()),
            ("procs", (r.nodes * 4).into()),
            ("scoma_cycles", r.scoma_cycles.into()),
            ("lanuma_cycles", r.lanuma_cycles.into()),
            ("scoma_wall_ms", r.scoma_wall_ms.into()),
            ("lanuma_wall_ms", r.lanuma_wall_ms.into()),
        ])
    });
    Json::obj([
        ("workload", id.to_string().into()),
        ("procs_per_node", 4u64.into()),
        ("sizes", Json::Arr(sizes.collect())),
    ])
}
