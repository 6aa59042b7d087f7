//! Fig. 8 / §5.4: the ViTAL compilation-time breakdown over the Table 2
//! benchmark suite, the partition-quality ablation (placement-based vs
//! naive partition — paper: 2.1× lower inter-block bandwidth), and the
//! offline-compilation burden of AmorphOS's high-throughput mode.

use vital::baselines::count_feasible_combinations;
use vital::cluster::CompileMetrics;
use vital::compiler::{Compiler, CompilerConfig, StageTimings};
use vital::netlist::hls::synthesize;
use vital::placer::{cut_bits, random_assignment, Placer, PlacerConfig, VirtualGrid};
use vital::runtime::{RuntimeConfig, SystemController};
use vital::workloads::{benchmarks, Size};
use vital_bench::bar;

fn main() {
    let sizes: Vec<Size> = if std::env::args().any(|a| a == "--full") {
        Size::ALL.to_vec() // all 21 designs; takes minutes
    } else {
        vec![Size::Small, Size::Medium]
    };

    let compiler = Compiler::new(CompilerConfig::default());
    let mut total = StageTimings::default();
    let mut cut_ratios = Vec::new();
    let mut compiled_count = 0usize;

    for bench in benchmarks() {
        for &size in &sizes {
            let spec = bench.spec(size);
            let compiled = compiler.compile(&spec).expect("suite compiles");
            total.accumulate(compiled.timings());
            compiled_count += 1;

            // Partition-quality ablation on the same netlist.
            let netlist = synthesize(&spec).expect("suite synthesizes");
            let n_blocks = netlist.resource_usage().blocks_needed(
                &compiler.config().block_resources,
                compiler.config().fill_margin,
            );
            if n_blocks > 1 {
                let grid = VirtualGrid::uniform(
                    n_blocks as usize,
                    compiler.config().effective_block_capacity(),
                );
                let placed = Placer::new(PlacerConfig::default())
                    .run(&netlist, &grid)
                    .expect("suite places");
                let naive = random_assignment(&netlist, &grid, 9).expect("suite places");
                let placed_cut = cut_bits(&placed).max(1);
                let naive_cut = cut_bits(&naive).max(1);
                cut_ratios.push(naive_cut as f64 / placed_cut as f64);
            }
        }
    }

    println!("== Fig. 8: compile-time breakdown over {compiled_count} designs ==\n");
    let b = total.breakdown();
    let rows = [
        ("synthesis (reused front-end)", b.synthesis),
        ("partition (custom)", b.partition),
        ("interface gen (custom)", b.interface_gen),
        ("local P&R (reused)", b.local_pnr),
        ("relocation (custom)", b.relocation),
        ("global P&R (reused)", b.global_pnr),
    ];
    for (label, frac) in rows {
        println!(
            "{:<30} {:>6.2}% |{}|",
            label,
            frac * 100.0,
            bar(frac, 1.0, 40)
        );
    }
    println!(
        "\nreused commercial P&R: {:.1}% of compile time (paper: 83.9%)",
        b.commercial_pnr() * 100.0
    );
    println!(
        "ViTAL custom tools   : {:.1}% of compile time (paper: 1.6%)",
        b.custom_tools() * 100.0
    );
    println!("total compile time   : {:?}", total.total());

    println!("\n== local P&R parallelism ==\n");
    println!("worker threads       : {}", total.workers);
    println!(
        "per-block P&R        : {} blocks, serial work {:?}, critical path {:?}",
        total.per_block_pnr.len(),
        total.serial_pnr_work(),
        total.max_block_pnr()
    );
    println!(
        "stage wall clock     : {:?} ({:.2}x over the one-worker cost)",
        total.local_pnr,
        total.serial_pnr_work().as_secs_f64() / total.local_pnr.as_secs_f64().max(1e-12)
    );

    // Compile cache: replay the suite through the system controller. The
    // second pass compiles nothing — every digest hits the cache.
    println!("\n== content-addressed compile cache ==\n");
    let controller = SystemController::new(RuntimeConfig::paper_cluster());
    for _pass in 0..2 {
        for bench in benchmarks() {
            for &size in &sizes {
                // Replaying a spec is idempotent: the warm pass hits the
                // digest index and re-registers byte-identical images.
                controller
                    .register_compiled(&compiler, &bench.spec(size))
                    .expect("suite registers");
            }
        }
    }
    let stats = controller.bitstreams().cache_stats();
    println!(
        "cold+warm pass over {compiled_count} designs: {} hits / {} misses \
         ({:.0}% hit rate; warm pass ran zero P&R)",
        stats.hits,
        stats.misses,
        stats.hit_rate() * 100.0
    );

    let metrics = CompileMetrics {
        designs: compiled_count,
        workers: total.workers,
        serial_pnr_s: total.serial_pnr_work().as_secs_f64(),
        wall_pnr_s: total.local_pnr.as_secs_f64(),
        cache_hits: stats.hits,
        cache_misses: stats.misses,
    };
    println!(
        "compile metrics      : {}",
        serde_json::to_string(&metrics).expect("metrics serialize")
    );

    println!("\n== §5.4: partition quality ==\n");
    let avg: f64 = if cut_ratios.is_empty() {
        1.0
    } else {
        cut_ratios.iter().sum::<f64>() / cut_ratios.len() as f64
    };
    println!(
        "placement-based partition reduces inter-block bandwidth by {avg:.1}x on \
         average over a naive partition ({} multi-block designs; paper: 2.1x)",
        cut_ratios.len()
    );

    println!("\n== §5.4: offline compilation burden ==\n");
    let blocks: Vec<u32> = benchmarks()
        .iter()
        .flat_map(|b| Size::ALL.map(|s| b.tile_count(s)))
        .collect();
    let combos = count_feasible_combinations(&blocks, 15, 4);
    println!(
        "ViTAL compiles each design once: {} bitstreams for the suite.",
        blocks.len()
    );
    println!(
        "AmorphOS high-throughput mode must pre-compile every feasible combination: \
         {combos} combined images for the same suite (paper: \"hundreds of combinations\"),"
    );
    println!("and recompile all affected combinations whenever one application changes.");
}
