//! Ablations of the DTS design choices called out in DESIGN.md:
//!
//! * `has_stolen_child` optimization on/off (Section IV-C),
//! * victim hands out deque head (classic) vs tail (as literally written in
//!   Figure 3(c) line 48),
//! * steal back-off sweep.

use bigtiny_apps::app_by_name;
use bigtiny_bench::{cli, render_table, run_app, Setup};
use bigtiny_engine::Protocol;

const CLI: cli::Spec = cli::Spec::new(env!("CARGO_BIN_NAME"), &[&cli::SIZE]);

fn main() {
    let size = CLI.parse().size();
    let names = ["cilk5-cs", "ligra-bfs", "ligra-tc"];

    println!("DTS ablations ({size:?} inputs, b.T/HCC-DTS-gwb)\n");

    // 1. has_stolen_child optimization.
    {
        let header: Vec<String> = [
            "App",
            "cycles (opt on)",
            "cycles (opt off)",
            "slowdown off/on",
            "AMOs on",
            "AMOs off",
        ]
        .map(String::from)
        .to_vec();
        let mut rows = Vec::new();
        for name in names {
            let app = app_by_name(name).expect("registered");
            let on = Setup::bt_hcc(Protocol::GpuWb, true);
            let mut off = Setup::bt_hcc(Protocol::GpuWb, true);
            off.rt.dts_has_stolen_child_opt = false;
            off.label.push_str("-nohsc");
            let r_on = run_app(&on, &app, size, 0);
            let r_off = run_app(&off, &app, size, 0);
            rows.push(vec![
                name.to_owned(),
                r_on.cycles.to_string(),
                r_off.cycles.to_string(),
                format!("{:.3}", r_off.cycles as f64 / r_on.cycles as f64),
                r_on.tiny_mem().amos.to_string(),
                r_off.tiny_mem().amos.to_string(),
            ]);
        }
        println!("Ablation 1: has_stolen_child optimization\n{}", render_table(&header, &rows));
    }

    // 2. Steal-from-head vs steal-from-tail in the victim handler.
    {
        let header: Vec<String> =
            ["App", "cycles (head)", "cycles (tail)", "tail/head", "steals head", "steals tail"]
                .map(String::from)
                .to_vec();
        let mut rows = Vec::new();
        for name in names {
            let app = app_by_name(name).expect("registered");
            let head = Setup::bt_hcc(Protocol::GpuWb, true);
            let mut tail = Setup::bt_hcc(Protocol::GpuWb, true);
            tail.rt.dts_steal_from_tail = true;
            tail.label.push_str("-tail");
            let r_head = run_app(&head, &app, size, 0);
            let r_tail = run_app(&tail, &app, size, 0);
            rows.push(vec![
                name.to_owned(),
                r_head.cycles.to_string(),
                r_tail.cycles.to_string(),
                format!("{:.3}", r_tail.cycles as f64 / r_head.cycles as f64),
                r_head.run.stats.steals.to_string(),
                r_tail.run.stats.steals.to_string(),
            ]);
        }
        println!(
            "Ablation 2: victim steals head (FIFO) vs tail (LIFO)\n{}",
            render_table(&header, &rows)
        );
    }

    // 3. Steal back-off sweep.
    {
        let header: Vec<String> =
            ["App", "backoff", "cycles", "steal attempts", "NACKs"].map(String::from).to_vec();
        let mut rows = Vec::new();
        for name in names {
            let app = app_by_name(name).expect("registered");
            for backoff in [4u64, 24, 96, 384] {
                let mut s = Setup::bt_hcc(Protocol::GpuWb, true);
                s.rt.steal_backoff_cycles = backoff;
                s.label = format!("{}-bo{backoff}", s.label);
                let r = run_app(&s, &app, size, 0);
                rows.push(vec![
                    name.to_owned(),
                    backoff.to_string(),
                    r.cycles.to_string(),
                    r.run.stats.steal_attempts.to_string(),
                    r.run.stats.steal_nacks.to_string(),
                ]);
            }
        }
        println!("Ablation 3: steal back-off\n{}", render_table(&header, &rows));
    }

    // 4. Victim-selection policy (an extension beyond the paper: exploit
    //    the mesh's physical locality when choosing victims).
    {
        use bigtiny_core::VictimPolicy;
        let header: Vec<String> =
            ["App", "policy", "cycles", "steals", "ULI mean hops"].map(String::from).to_vec();
        let mut rows = Vec::new();
        for name in names {
            let app = app_by_name(name).expect("registered");
            for policy in
                [VictimPolicy::Random, VictimPolicy::RoundRobin, VictimPolicy::NearestFirst]
            {
                let mut s = Setup::bt_hcc(Protocol::GpuWb, true);
                s.rt.victim_policy = policy;
                s.label = format!("{}-{policy:?}", s.label);
                let r = run_app(&s, &app, size, 0);
                rows.push(vec![
                    name.to_owned(),
                    format!("{policy:?}"),
                    r.cycles.to_string(),
                    r.run.stats.steals.to_string(),
                    format!("{:.1}", r.run.report.uli.mean_hops),
                ]);
            }
        }
        println!("Ablation 4: victim selection policy\n{}", render_table(&header, &rows));
    }

    // 5. Lock-based vs Chase-Lev deque for the hardware-coherence baseline.
    {
        use bigtiny_core::DequeKind;
        let header: Vec<String> =
            ["App", "deque", "cycles", "AMOs (all cores)"].map(String::from).to_vec();
        let mut rows = Vec::new();
        for name in names {
            let app = app_by_name(name).expect("registered");
            for kind in [DequeKind::Locked, DequeKind::ChaseLev] {
                let mut s = Setup::bt_mesi();
                s.rt.deque_kind = kind;
                s.label = format!("{}-{kind:?}", s.label);
                let r = run_app(&s, &app, size, 0);
                let all: Vec<usize> = (0..64).collect();
                rows.push(vec![
                    name.to_owned(),
                    format!("{kind:?}"),
                    r.cycles.to_string(),
                    r.run.report.mem_stats_over(&all).amos.to_string(),
                ]);
            }
        }
        println!("Ablation 5: baseline deque implementation\n{}", render_table(&header, &rows));
    }
}
