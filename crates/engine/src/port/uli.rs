//! §IV's user-level interrupts: steal requests, responses, and the wait.

use std::sync::Arc;

use bigtiny_mesh::{UliMessage, UliOutcome};

use super::CorePort;
use crate::breakdown::TimeCategory;
use crate::event::{MemOp, SyncNote};
use crate::fault::UliSendFault;
use crate::flight::FlightKind;
use crate::sequencer::{unwind_poisoned, PollOp, PollPlan, Section, POLL_SPIN_CYCLES};
use crate::system::GlobalState;
use crate::trace::UliMarkKind;

/// A ULI handler installed by the runtime: invoked with the port and the
/// incoming request message (the thief's core id is `msg.from`).
pub type UliHandler = Box<dyn FnMut(&mut CorePort, UliMessage) + Send>;

/// How a wait for a ULI response ended ([`CorePort::uli_await_response`]).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum UliWait {
    /// The response arrived.
    Response(UliMessage),
    /// The program signalled completion first.
    Done,
    /// The deadline passed with neither.
    TimedOut,
}

impl CorePort {
    /// Whether a ULI request arriving now would be delivered at this core's
    /// next sequenced operation: a handler is installed and not running.
    #[inline]
    pub(super) fn takes_requests(&self) -> bool {
        self.handler.is_some() && !self.in_handler
    }

    /// Delivers a request a sequenced operation took — unless fault
    /// injection loses it before the handler sees it (a dropped interrupt).
    pub(super) fn deliver_uli(&mut self, msg: UliMessage) {
        let from = msg.from;
        if self.faults.on_uli_receive() {
            let at = self.clock.cycle;
            self.rec.uli(at, at, UliMarkKind::ReqLost { from });
            return;
        }
        // Architectural interrupt cost: drain in-flight instructions and
        // vector to the user-level handler.
        let cost = self.kind.uli_cost();
        self.clock.breakdown.add(TimeCategory::Uli, cost);
        self.clock.cycle += cost;
        let at = self.clock.cycle;
        self.rec.uli(at, at, UliMarkKind::ReqRecv { from });
        let mut h = self.handler.take().expect("handler present when dispatching");
        self.in_handler = true;
        h(self, msg);
        self.in_handler = false;
        self.handler = Some(h);
    }

    /// Installs the ULI handler for this core (the runtime's steal handler).
    pub fn set_uli_handler(&mut self, handler: UliHandler) {
        self.handler = Some(handler);
    }

    /// Enables ULI reception.
    pub fn uli_enable(&mut self) {
        self.seq(None, |st, _, core| st.uli.set_enabled(core, true), |_| None);
        self.charge(TimeCategory::Uli, 1);
        self.instructions += 1;
    }

    /// Disables ULI reception (requests arriving while disabled are NACKed
    /// or deferred per the ULI network model).
    pub fn uli_disable(&mut self) {
        self.seq(None, |st, _, core| st.uli.set_enabled(core, false), |_| None);
        self.charge(TimeCategory::Uli, 1);
        self.instructions += 1;
    }

    /// Sends a ULI request to `victim`. On NACK the core stalls until the
    /// NACK returns. The response must be collected with
    /// [`CorePort::uli_poll_response`].
    ///
    /// Under an armed [`FaultPlan`](crate::FaultPlan) the request may be
    /// silently dropped (the caller still observes [`UliOutcome::Sent`] —
    /// only a response timeout reveals the loss), force-NACKed, or
    /// delivered late.
    pub fn uli_send_request(&mut self, victim: usize, payload: u64) -> UliOutcome {
        // Grant time of the send, captured before `seq` folds pending
        // compute and possibly dispatches an incoming ULI (which would move
        // the clock past the send itself).
        let send_cycle = self.now();
        let fault = self.faults.on_uli_send();
        let out = self.seq(
            None,
            move |st, now, core| match fault {
                UliSendFault::Drop => {
                    st.uli.drop_request(core, victim);
                    UliOutcome::Sent
                }
                UliSendFault::Nack => st.uli.forced_nack(core, victim, now),
                UliSendFault::None | UliSendFault::Delay(_) => {
                    let out = st.uli.try_send_request(core, victim, payload, now);
                    if let (UliSendFault::Delay(extra), UliOutcome::Sent) = (fault, out) {
                        st.uli.delay_request(victim, extra);
                    }
                    out
                }
            },
            |out| {
                (fault == UliSendFault::None && *out == UliOutcome::Sent)
                    .then_some(MemOp::Sync(SyncNote::UliReqSend { to: victim }))
            },
        );
        self.rec.req_sent(send_cycle, self.clock.cycle, victim, fault, out);
        self.charge(TimeCategory::Uli, 1);
        self.instructions += 1;
        if let UliOutcome::Nack { reply_at } | UliOutcome::Dead { reply_at } = out {
            let wait = reply_at.saturating_sub(self.clock.cycle);
            self.charge(TimeCategory::UliWait, wait);
        }
        out
    }

    /// Sends a ULI response back to `thief` (from inside a handler).
    pub fn uli_send_response(&mut self, thief: usize, payload: u64) {
        let send_cycle = self.now();
        self.seq(
            None,
            move |st, now, core| st.uli.send_response(core, thief, payload, now),
            |_| Some(MemOp::Sync(SyncNote::UliRespSend { to: thief })),
        );
        self.rec.uli(send_cycle, self.clock.cycle, UliMarkKind::RespSend { to: thief });
        self.charge(TimeCategory::Uli, 1);
        self.instructions += 1;
    }

    /// Collects a ULI response if one has arrived.
    pub fn uli_poll_response(&mut self) -> Option<UliMessage> {
        self.poll_response_in(None)
    }

    fn poll_response_in(&mut self, held: Option<Section<'_, GlobalState>>) -> Option<UliMessage> {
        let poll_cycle = self.now();
        let msg = self.seq(
            held,
            |st, now, core| st.uli.take_response(core, now),
            |m: &Option<UliMessage>| {
                m.as_ref().map(|m| MemOp::Sync(SyncNote::UliRespRecv { from: m.from }))
            },
        );
        if let Some(m) = &msg {
            self.rec.uli(poll_cycle, self.clock.cycle, UliMarkKind::RespRecv { from: m.from });
        }
        self.charge(TimeCategory::UliWait, PollOp::Response.cycles());
        self.instructions += 1;
        msg
    }

    /// Explicitly polls for an incoming ULI request and services it (used in
    /// wait loops; ordinary sequenced operations poll automatically).
    pub fn uli_poll(&mut self) {
        if self.takes_requests() {
            // The sequenced op itself delivers (or fault-drops) any pending
            // request.
            self.seq(None, |_, _, _| (), |_| None);
        }
    }

    /// Waits for the response to a ULI request this core has sent
    /// (Figure 3(c) lines 24-34): rounds of [`CorePort::uli_poll_response`],
    /// [`CorePort::uli_poll`] — servicing incoming steal requests, so two
    /// cores stealing from each other cannot deadlock — and
    /// [`CorePort::is_done`], with a short spin between rounds, until the
    /// response arrives, the program completes, or a round ends at or after
    /// `deadline`.
    ///
    /// Simulated exactly as that loop of one-op calls, but the core does not
    /// take a grant per poll: it parks in the sequencer, which serves the
    /// polls that observe nothing in place and wakes the core for the first
    /// one that needs it (see [`Sequencer::park_poll`](crate::Sequencer));
    /// the core then catches up on what those polls left behind locally.
    pub fn uli_await_response(&mut self, deadline: Option<u64>) -> UliWait {
        // One handle for the whole wait: a section borrowed from the port's
        // own could not be handed back to the port's methods.
        let shared = Arc::clone(&self.shared);
        let plan = PollPlan { requests: self.takes_requests(), deadline };
        let mut op = PollOp::Response;
        loop {
            self.flush_compute();
            let held = match shared.seq.park_poll(self.core, self.clock.cycle, plan, op) {
                Ok(wake) => {
                    op = self.replay_polls(plan, op, wake.served);
                    debug_assert_eq!((op, self.clock.cycle), (wake.op, wake.time));
                    wake.section
                }
                Err(served) => {
                    self.replay_polls(plan, op, served);
                    unwind_poisoned();
                }
            };
            match op {
                PollOp::Response => {
                    if let Some(m) = self.poll_response_in(Some(held)) {
                        return UliWait::Response(m);
                    }
                }
                PollOp::Requests => self.seq(Some(held), |_, _, _| (), |_| None),
                PollOp::Done => {
                    if self.is_done_in(Some(held)) {
                        return UliWait::Done;
                    }
                    if deadline.is_some_and(|d| self.now() >= d) {
                        return UliWait::TimedOut;
                    }
                    self.charge(TimeCategory::UliWait, POLL_SPIN_CYCLES);
                }
            }
            op = plan.next(op);
        }
    }

    /// Catches up on `served` polls of `plan`, starting at `op`, that the
    /// sequencer granted in place and that observed nothing: each one's
    /// flight-ring `Grant` record and what the one-op call charges after a
    /// negative poll. Returns the poll after them.
    fn replay_polls(&mut self, plan: PollPlan, mut op: PollOp, served: u64) -> PollOp {
        for _ in 0..served {
            self.rec.note(self.clock.cycle, FlightKind::Grant);
            match op {
                PollOp::Response => {
                    self.book(TimeCategory::UliWait, op.cycles());
                    self.instructions += 1;
                }
                PollOp::Requests => {}
                PollOp::Done => {
                    self.book(TimeCategory::Idle, op.cycles());
                    self.book(TimeCategory::UliWait, POLL_SPIN_CYCLES);
                }
            }
            op = plan.next(op);
        }
        op
    }
}
