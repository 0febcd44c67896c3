//! Reproduces **Figs. 3–5**: the ASAP/ALAP schedules, storage lifetimes
//! and distribution graphs of the force-directed-scheduling example.
//!
//! The item graph mirrors the paper's figure: four single LUTs and three
//! LUT clusters over three folding cycles, with LUT2's storage
//! transferring a value to LUT3 and LUT4 (Fig. 4's storage `S`).
//!
//! Run: `cargo run -p nanomap-bench --release --bin fds_example`

use nanomap_netlist::{LutId, LutNetwork};
use nanomap_sched::{
    schedule_fds, storage_ops, DistributionGraphs, FdsOptions, Item, ItemEdge, ItemGraph, ItemKind,
    StorageOp, StorageWeightMode, TimeFrames,
};

fn example_graph() -> ItemGraph {
    let mk = |i: usize, w: u32, name: &str| Item {
        kind: ItemKind::Lut(LutId::new(i)),
        luts: vec![LutId::new(i)],
        weight: w,
        window: 1,
        name: name.into(),
    };
    // 0..=3: LUT1..LUT4; 4..=6: clus1..clus3.
    let items = vec![
        mk(0, 1, "LUT1"),
        mk(1, 1, "LUT2"),
        mk(2, 1, "LUT3"),
        mk(3, 1, "LUT4"),
        mk(4, 12, "clus1"),
        mk(5, 12, "clus2"),
        mk(6, 12, "clus3"),
    ];
    let edges = vec![
        ItemEdge {
            from: 4,
            to: 5,
            latency: 1,
        },
        ItemEdge {
            from: 5,
            to: 6,
            latency: 1,
        },
        ItemEdge {
            from: 0,
            to: 2,
            latency: 1,
        },
        ItemEdge {
            from: 1,
            to: 2,
            latency: 1,
        },
        ItemEdge {
            from: 1,
            to: 3,
            latency: 1,
        },
    ];
    let mut succs = vec![Vec::new(); items.len()];
    let mut preds = vec![Vec::new(); items.len()];
    for e in &edges {
        succs[e.from].push((e.to, e.latency));
        preds[e.to].push((e.from, e.latency));
    }
    ItemGraph {
        items,
        edges,
        succs,
        preds,
        item_of_lut: Default::default(),
        folding_level: 1,
    }
}

fn main() {
    let graph = example_graph();
    let stages = 3;
    let frames =
        TimeFrames::compute(&graph, stages, &vec![None; graph.len()]).expect("example is feasible");

    println!("Fig. 3: ASAP/ALAP time frames (folding cycles are 1-based)");
    for (i, item) in graph.items.iter().enumerate() {
        let (a, b) = frames.frame(i);
        println!(
            "  {:<6} weight {:>2}: time frame [{}, {}]  (mobility {})",
            item.name,
            item.weight,
            a + 1,
            b + 1,
            frames.mobility(i)
        );
    }

    // Fig. 4: the storage lifetimes of S = LUT2 -> {LUT3, LUT4}.
    let op = StorageOp {
        src: 1,
        dests: vec![2, 3],
        weight: 1,
    };
    let (s_asap, s_alap) = frames.frame(1);
    let d_asap = frames.frame(2).0.max(frames.frame(3).0);
    let d_alap = frames.frame(2).1.max(frames.frame(3).1);
    println!("\nFig. 4: storage S (LUT2 -> LUT3, LUT4)");
    println!(
        "  ASAP life [{}, {}], ALAP life [{}, {}], max life [{}, {}]",
        s_asap + 1,
        d_asap + 1,
        s_alap + 1,
        d_alap + 1,
        s_asap + 1,
        d_alap + 1
    );

    println!("\nFig. 5: distribution graphs");
    let net = LutNetwork::new("example");
    let ops = storage_ops(&net, &graph, StorageWeightMode::ItemWeight);
    let dgs = DistributionGraphs::build(&graph, &frames, &ops);
    let bar = |v: f64| "#".repeat((v * 2.0).round() as usize);
    for j in 0..stages as usize {
        println!(
            "  cycle {}: LUT_DG = {:>6.3} {}",
            j + 1,
            dgs.lut[j],
            bar(dgs.lut[j] / 4.0)
        );
    }
    for j in 0..stages as usize {
        println!(
            "  cycle {}: storage_DG = {:>6.3} {}",
            j + 1,
            dgs.storage[j],
            bar(dgs.storage[j])
        );
    }
    let s_dist = DistributionGraphs::storage_distribution_of(&frames, &op, None);
    println!("  storage S distribution per cycle: {s_dist:.3?}");

    println!("\nAlgorithm 1: force-directed schedule");
    let schedule =
        schedule_fds(&net, &graph, stages, FdsOptions::default()).expect("example schedules");
    for (i, item) in graph.items.iter().enumerate() {
        println!(
            "  {:<6} -> folding cycle {}",
            item.name,
            schedule.stage_of[i] + 1
        );
    }
    let counts = schedule.lut_counts(&graph);
    println!(
        "  LUT weight per cycle: {counts:?} (balanced peak {})",
        counts.iter().max().expect("non-empty")
    );
}
