//! ULI edge cases through the full engine (CorePort + sequencer + network),
//! not just the network model: NACK-on-disabled-receiver retry, the
//! one-request-in-flight limit, and polling a response after the victim has
//! already retired.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

use bigtiny_engine::{run_system, SystemConfig, UliOutcome, Worker};

/// A thief whose first request is NACKed (receiver still disabled) succeeds
/// by retrying once the victim has enabled reception and gets the handler's
/// response back.
#[test]
fn nack_on_disabled_receiver_then_retry_gets_served() {
    let config = SystemConfig::o3(2);
    let first_outcome = Arc::new(AtomicU64::new(0));
    let first = Arc::clone(&first_outcome);

    let victim: Worker = Box::new(|port| {
        // Stay disabled long enough that the thief's first send NACKs.
        port.idle(200);
        port.set_uli_handler(Box::new(|port, msg| {
            port.uli_send_response(msg.from, msg.payload + 1);
        }));
        port.uli_enable();
        while !port.is_done() {
            port.uli_poll();
            port.idle(5);
        }
    });
    let thief: Worker = Box::new(move |port| {
        let mut sends = 0u64;
        loop {
            sends += 1;
            match port.uli_send_request(0, 41) {
                UliOutcome::Sent => break,
                UliOutcome::Nack { .. } => {
                    if first.load(Ordering::Relaxed) == 0 {
                        first.store(1, Ordering::Relaxed); // first attempt NACKed
                    }
                    port.idle(20);
                }
                UliOutcome::Dead { .. } => panic!("no crash plan armed"),
            }
        }
        assert!(sends > 1, "first send must have been NACKed and retried");
        let resp = loop {
            if let Some(m) = port.uli_poll_response() {
                break m;
            }
            port.idle(5);
        };
        assert_eq!(resp.payload, 42, "handler response made it back");
        port.set_done();
    });
    run_system(&config, vec![victim, thief]);
    assert_eq!(first_outcome.load(Ordering::Relaxed), 1, "first attempt observed a NACK");
}

/// Receivers accept one request in flight: with a pending unserviced
/// request, a second thief is NACKed even though the receiver is enabled.
#[test]
fn one_in_flight_request_per_receiver() {
    let config = SystemConfig::o3(3);
    // Victim is core 0 so its enable sequences before the thieves' sends
    // (ties at cycle 0 break by core id); thief 1 sends before thief 2.
    let victim: Worker = Box::new(|port| {
        port.uli_enable(); // enabled, but no handler: the request stays pending
        while !port.is_done() {
            port.idle(10);
        }
    });
    let thief1: Worker = Box::new(|port| {
        assert_eq!(port.uli_send_request(0, 1), UliOutcome::Sent, "slot was free");
        while !port.is_done() {
            port.idle(10);
        }
    });
    let thief2: Worker = Box::new(|port| {
        port.idle(50); // well after thief 1's request is in flight
        assert!(
            matches!(port.uli_send_request(0, 2), UliOutcome::Nack { .. }),
            "second in-flight request must NACK"
        );
        port.set_done();
    });
    run_system(&config, vec![victim, thief1, thief2]);
}

/// A response sent just before the victim disables its receiver and retires
/// is still collectable by the thief arbitrarily later — victim death never
/// strands a response on the wire.
#[test]
fn uli_poll_response_after_victim_death() {
    let config = SystemConfig::o3(2);
    let served = Arc::new(AtomicBool::new(false));
    let served_v = Arc::clone(&served);

    let victim: Worker = Box::new(move |port| {
        let flag = Arc::clone(&served_v);
        port.set_uli_handler(Box::new(move |port, msg| {
            port.uli_send_response(msg.from, msg.payload * 2);
            flag.store(true, Ordering::Relaxed);
        }));
        port.uli_enable();
        while !served_v.load(Ordering::Relaxed) {
            port.uli_poll();
            port.idle(5);
        }
        port.uli_disable();
        // Worker returns: the core retires from the sequencer ("dies").
    });
    let thief: Worker = Box::new(|port| {
        loop {
            match port.uli_send_request(0, 21) {
                UliOutcome::Sent => break,
                UliOutcome::Nack { .. } => port.idle(10),
                UliOutcome::Dead { .. } => panic!("no crash plan armed"),
            }
        }
        // Let the victim respond, tear down, and retire before polling.
        port.idle(10_000);
        let resp = loop {
            if let Some(m) = port.uli_poll_response() {
                break m;
            }
            port.idle(5);
        };
        assert_eq!((resp.from, resp.payload), (0, 42));
        port.set_done();
    });
    run_system(&config, vec![victim, thief]);
    assert!(served.load(Ordering::Relaxed));
}

// ----------------------------------------------------------------------
// The thief's response wait (Figure 3(c) lines 24-34)
// ----------------------------------------------------------------------
//
// Every case below pins what `uli_await_response` leaves on the waiting
// core — final clock, time breakdown, retired instructions — against
// constants captured while the wait was still spelled as one sequencer
// round trip per poll (`uli_poll_response`, `uli_poll`, `is_done`,
// `wait_cycles(8)`), and requires both backends to agree on them.

mod response_wait {
    use std::sync::Arc;

    use bigtiny_engine::{
        run_system, AddrSpace, CorePort, ExecBackend, Protocol, RunReport, ShScalar, SystemConfig,
        TimeCategory, UliOutcome, UliWait, Worker,
    };

    /// `[cycles, uli_wait, idle, uli, compute, instructions]` of `core`.
    type Local = [u64; 6];

    fn local(r: &RunReport, core: usize) -> Local {
        let b = &r.breakdowns[core];
        assert_eq!(b.total(), r.core_cycles[core], "core {core}: breakdown tiles the clock");
        [
            r.core_cycles[core],
            b.get(TimeCategory::UliWait),
            b.get(TimeCategory::Idle),
            b.get(TimeCategory::Uli),
            b.get(TimeCategory::Compute),
            r.instructions[core],
        ]
    }

    /// Runs `workers()` on four tiny cores on every backend, requires the
    /// backends to agree on every core's local history, and returns the
    /// per-core [`Local`]s.
    fn run_everywhere(workers: impl Fn() -> Vec<Worker>) -> Vec<Local> {
        let backends: &[ExecBackend] = if cfg!(all(target_os = "linux", target_arch = "x86_64")) {
            &[ExecBackend::Fibers, ExecBackend::Threads]
        } else {
            &[ExecBackend::Threads]
        };
        let mut seen: Option<Vec<Local>> = None;
        for &backend in backends {
            let config = SystemConfig::tiny_only(4, Protocol::GpuWb).with_backend(backend);
            let r = run_system(&config, workers());
            let locals: Vec<Local> = (0..4).map(|c| local(&r, c)).collect();
            match &seen {
                Some(first) => assert_eq!(&locals, first, "{backend:?} disagrees with Fibers"),
                None => seen = Some(locals),
            }
        }
        seen.expect("at least one backend ran")
    }

    fn idle_until_done(port: &mut CorePort) {
        while !port.is_done() {
            port.idle(10);
        }
    }

    /// A thief on core 1 steals from a victim on core 0 whose handler
    /// dawdles `delay` cycles before responding; returns the thief's local
    /// history plus how long after its arrival the response was collected.
    fn steal_with_response_delay(thief_has_handler: bool, delay: u64) -> (Local, u64) {
        let lag = Arc::new(std::sync::atomic::AtomicU64::new(u64::MAX));
        let lag_out = Arc::clone(&lag);
        let locals = run_everywhere(move || {
            let lag = Arc::clone(&lag);
            let victim: Worker = Box::new(move |port| {
                port.set_uli_handler(Box::new(move |port, msg| {
                    port.idle(delay);
                    port.uli_send_response(msg.from, 1);
                }));
                port.uli_enable();
                while !port.is_done() {
                    port.uli_poll();
                    port.idle(5);
                }
            });
            let thief: Worker = Box::new(move |port| {
                if thief_has_handler {
                    port.set_uli_handler(Box::new(|port, msg| {
                        port.uli_send_response(msg.from, 0);
                    }));
                    port.uli_enable();
                }
                port.idle(50);
                assert_eq!(port.uli_send_request(0, 7), UliOutcome::Sent);
                match port.uli_await_response(None) {
                    UliWait::Response(m) => {
                        assert_eq!((m.from, m.payload), (0, 1));
                        // The collecting poll was granted one cycle ago.
                        lag.store(
                            port.now() - 1 - m.arrives_at,
                            std::sync::atomic::Ordering::Relaxed,
                        );
                    }
                    other => panic!("expected a response, got {other:?}"),
                }
                port.set_done();
            });
            vec![victim, thief, Box::new(idle_until_done), Box::new(idle_until_done)]
        });
        (locals[1], lag_out.load(std::sync::atomic::Ordering::Relaxed))
    }

    /// Ten consecutive handler delays walk the response's arrival across one
    /// whole 10-cycle poll round: exactly on a response poll (collected at
    /// once), one cycle after it (collected a full round later), and every
    /// phase between.
    fn response_phase_scan(thief_has_handler: bool, want: &[(Local, u64); 10]) {
        let got: Vec<(Local, u64)> =
            (0..10).map(|delay| steal_with_response_delay(thief_has_handler, delay)).collect();
        assert_eq!(got, want, "observed: {got:?}");
        let lags: Vec<u64> = got.iter().map(|&(_, lag)| lag).collect();
        assert!(lags.contains(&0), "no delay landed the response on a poll boundary: {lags:?}");
        assert!(lags.contains(&9), "no delay landed the response one cycle late: {lags:?}");
    }

    #[test]
    fn response_on_and_after_a_poll_boundary() {
        // Every delay lands inside one round, so the thief's history is the
        // same and only the collection lag moves.
        let want: [(Local, u64); 10] =
            std::array::from_fn(|d| ([73, 19, 52, 2, 0, 5], 9 - d as u64));
        response_phase_scan(true, &want);
    }

    /// Without a handler the round has no request poll: a two-op plan.
    #[test]
    fn response_wait_without_a_handler_is_a_two_op_round() {
        // One cycle earlier than with a handler (no `uli_enable`): the last
        // delay misses the round and is collected a full round later.
        let mut want: [(Local, u64); 10] =
            std::array::from_fn(|d| ([72, 19, 52, 1, 0, 4], 8 - d.min(8) as u64));
        want[9] = ([82, 28, 53, 1, 0, 5], 9);
        response_phase_scan(false, &want);
    }

    /// A steal request arrives for the waiting thief: its handler runs (the
    /// clock jumps by the interrupt cost and the handler's own ops), the
    /// round resumes at the next op, and the thief goes back to waiting.
    /// Ten intruder start times walk the request's arrival across a round.
    #[test]
    fn request_for_a_waiting_thief_runs_its_handler_and_resumes() {
        let got: Vec<[Local; 2]> = (0..10)
            .map(|phase| {
                let locals = run_everywhere(move || {
                    let victim: Worker = Box::new(|port| {
                        port.set_uli_handler(Box::new(|port, msg| {
                            port.idle(300);
                            port.uli_send_response(msg.from, 1);
                        }));
                        port.uli_enable();
                        while !port.is_done() {
                            port.uli_poll();
                            port.idle(5);
                        }
                    });
                    let thief: Worker = Box::new(|port| {
                        port.set_uli_handler(Box::new(|port, msg| {
                            port.advance(3);
                            port.uli_send_response(msg.from, 0);
                        }));
                        port.uli_enable();
                        port.idle(50);
                        assert_eq!(port.uli_send_request(0, 7), UliOutcome::Sent);
                        assert!(
                            matches!(port.uli_await_response(None), UliWait::Response(m) if m.from == 0)
                        );
                        port.set_done();
                    });
                    let intruder: Worker = Box::new(move |port| {
                        port.idle(100 + phase);
                        assert_eq!(port.uli_send_request(1, 9), UliOutcome::Sent);
                        let waited = port.uli_await_response(None);
                        assert!(
                            matches!(waited, UliWait::Response(m) if (m.from, m.payload) == (1, 0)),
                            "the waiting thief must answer from its wait loop"
                        );
                        idle_until_done(port);
                    });
                    vec![victim, thief, intruder, Box::new(idle_until_done)]
                });
                [locals[1], locals[2]]
            })
            .collect();
        // The thief's timeline does not depend on where in a round the request
        // lands (it is serviced at the next op either way); the intruder's does.
        let thief: Local = [372, 280, 81, 8, 3, 38];
        let intruders: [Local; 10] = [
            [376, 19, 356, 1, 0, 4],
            [376, 28, 347, 1, 0, 5],
            [378, 19, 358, 1, 0, 4],
            [379, 19, 359, 1, 0, 4],
            [380, 19, 360, 1, 0, 4],
            [381, 19, 361, 1, 0, 4],
            [382, 19, 362, 1, 0, 4],
            [383, 19, 363, 1, 0, 4],
            [373, 19, 353, 1, 0, 4],
            [374, 19, 354, 1, 0, 4],
        ];
        let want = intruders.map(|intruder| [thief, intruder]);
        assert_eq!(got, want, "observed: {got:?}");
    }

    /// The victim never services the request; the main core signals
    /// completion while the thief waits. Ten completion times walk
    /// `set_done` across a round.
    #[test]
    fn set_done_ends_the_wait() {
        let got: Vec<Local> = (0..10)
            .map(|phase| {
                let locals = run_everywhere(move || {
                    let main: Worker = Box::new(move |port| {
                        port.idle(200 + phase);
                        port.set_done();
                    });
                    let victim: Worker = Box::new(|port| {
                        port.uli_enable(); // no handler: the request stays buffered
                        idle_until_done(port);
                    });
                    let thief: Worker = Box::new(|port| {
                        port.set_uli_handler(Box::new(|port, msg| {
                            port.uli_send_response(msg.from, 0);
                        }));
                        port.uli_enable();
                        port.idle(50);
                        assert_eq!(port.uli_send_request(1, 7), UliOutcome::Sent);
                        assert_eq!(port.uli_await_response(None), UliWait::Done);
                    });
                    vec![main, victim, thief, Box::new(idle_until_done)]
                });
                locals[2]
            })
            .collect();
        let want: [Local; 10] = std::array::from_fn(|p| {
            if p < 4 {
                [204, 136, 66, 2, 0, 18]
            } else {
                [214, 145, 67, 2, 0, 19]
            }
        });
        assert_eq!(got, want, "observed: {got:?}");
    }

    /// No message ever comes: the hardened deadline ends the wait. Ten
    /// deadlines walk the timeout check across a round.
    #[test]
    fn deadline_ends_a_wait_nobody_answers() {
        let got: Vec<Local> = (0..10)
            .map(|phase| {
                let locals = run_everywhere(move || {
                    let victim: Worker = Box::new(|port| {
                        port.uli_enable(); // no handler: the request stays buffered
                        idle_until_done(port);
                    });
                    let thief: Worker = Box::new(move |port| {
                        port.set_uli_handler(Box::new(|port, msg| {
                            port.uli_send_response(msg.from, 0);
                        }));
                        port.uli_enable();
                        port.idle(50);
                        assert_eq!(port.uli_send_request(0, 7), UliOutcome::Sent);
                        let deadline = port.now() + 100 + phase;
                        assert_eq!(port.uli_await_response(Some(deadline)), UliWait::TimedOut);
                        assert!(port.now() >= deadline);
                        port.set_done();
                    });
                    vec![victim, thief, Box::new(idle_until_done), Box::new(idle_until_done)]
                });
                locals[1]
            })
            .collect();
        let want: [Local; 10] = std::array::from_fn(|p| {
            if p < 3 {
                [154, 91, 61, 2, 0, 13]
            } else {
                [164, 100, 62, 2, 0, 14]
            }
        });
        assert_eq!(got, want, "observed: {got:?}");
    }

    /// A parent waiting at a join keeps trying to steal: it waits for steal
    /// responses again and again from inside its join loop while the core
    /// running its child answers "empty" from a handler.
    #[test]
    fn thief_waits_from_inside_a_join_wait() {
        let locals = run_everywhere(|| {
            let mut space = AddrSpace::new();
            let child_done = Arc::new(ShScalar::new(&mut space, 0u64));
            let joined = Arc::clone(&child_done);
            let parent: Worker = Box::new(move |port| {
                port.set_uli_handler(Box::new(|port, msg| {
                    port.uli_send_response(msg.from, 0);
                }));
                port.uli_enable();
                let mut attempts = 0;
                while joined.amo(port, |d| *d) == 0 {
                    attempts += 1;
                    assert_eq!(port.uli_send_request(1, 7), UliOutcome::Sent);
                    let waited = port.uli_await_response(None);
                    assert!(matches!(waited, UliWait::Response(m) if m.payload == 0));
                    port.idle(20);
                }
                assert!(attempts > 3, "the join wait must have stolen repeatedly");
                port.set_done();
            });
            let child: Worker = Box::new(move |port| {
                port.set_uli_handler(Box::new(|port, msg| {
                    port.advance(2);
                    port.uli_send_response(msg.from, 0);
                }));
                port.uli_enable();
                for _ in 0..40 {
                    port.advance(100);
                }
                child_done.amo(port, |d| *d = 1);
                idle_until_done(port);
            });
            vec![parent, child, Box::new(idle_until_done), Box::new(idle_until_done)]
        });
        let want: [Local; 2] = [[4177, 2867, 597, 15, 0, 361], [4180, 0, 23, 85, 4028, 4044]];
        assert_eq!(&locals[..2], &want, "observed: {:?}", &locals[..2]);
    }
}
