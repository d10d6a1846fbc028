//! Ablations of the DTS design choices called out in DESIGN.md:
//!
//! * `has_stolen_child` optimization on/off (Section IV-C),
//! * victim hands out deque head (classic) vs tail (as literally written in
//!   Figure 3(c) line 48),
//! * steal back-off sweep,
//! * victim-selection policy,
//! * the baseline's deque implementation.
//!
//! Ablations 1–4 each turn one knob of `b.T/HCC-DTS-gwb`; the cell with
//! every knob at its default runs once per kernel and stands in all four.

use bigtiny_apps::app_by_name;
use bigtiny_bench::{cli, render_table, run_app, AppResult, Setup};
use bigtiny_core::{RuntimeConfig, VictimPolicy};
use bigtiny_engine::Protocol;

const CLI: cli::Spec = cli::Spec::new(env!("CARGO_BIN_NAME"), &[&cli::SIZE]);

fn main() {
    let size = CLI.parse().size();
    let names = ["cilk5-cs", "ligra-bfs", "ligra-tc"];

    println!("DTS ablations ({size:?} inputs, b.T/HCC-DTS-gwb)\n");

    let dts = || Setup::bt_hcc(Protocol::GpuWb, true);
    let defaults: [AppResult; 3] =
        names.map(|name| run_app(&dts(), &app_by_name(name).expect("registered"), size, 0));
    let default_rt = dts().rt;
    // Kernel `i` on b.T/HCC-DTS-gwb with one knob turned and `suffix` on
    // the label.
    let turned = |i: usize, suffix: &str, turn: &dyn Fn(&mut RuntimeConfig)| {
        let mut s = dts();
        turn(&mut s.rt);
        s.label.push_str(suffix);
        run_app(&s, &app_by_name(names[i]).expect("registered"), size, 0)
    };

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
        for (i, r_on) in defaults.iter().enumerate() {
            let r_off = turned(i, "-nohsc", &|rt| rt.dts_has_stolen_child_opt = false);
            rows.push(vec![
                names[i].to_owned(),
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
        for (i, r_head) in defaults.iter().enumerate() {
            let r_tail = turned(i, "-tail", &|rt| rt.dts_steal_from_tail = true);
            rows.push(vec![
                names[i].to_owned(),
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
        for (i, default) in defaults.iter().enumerate() {
            for backoff in [4u64, 24, 96, 384] {
                let run = (backoff != default_rt.steal_backoff_cycles).then(|| {
                    turned(i, &format!("-bo{backoff}"), &|rt| rt.steal_backoff_cycles = backoff)
                });
                let r = run.as_ref().unwrap_or(default);
                rows.push(vec![
                    names[i].to_owned(),
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
        let header: Vec<String> =
            ["App", "policy", "cycles", "steals", "ULI mean hops"].map(String::from).to_vec();
        let mut rows = Vec::new();
        for (i, default) in defaults.iter().enumerate() {
            for policy in
                [VictimPolicy::Random, VictimPolicy::RoundRobin, VictimPolicy::NearestFirst]
            {
                let run = (policy != default_rt.victim_policy)
                    .then(|| turned(i, &format!("-{policy:?}"), &|rt| rt.victim_policy = policy));
                let r = run.as_ref().unwrap_or(default);
                rows.push(vec![
                    names[i].to_owned(),
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
                let all: Vec<usize> = (0..s.sys.cores.len()).collect();
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
