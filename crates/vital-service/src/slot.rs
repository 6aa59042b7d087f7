//! The completion slot a client waits on: a one-shot rendezvous between
//! the worker that executes a request and the caller that submitted it.
//!
//! Each request allocates its own slot — one `Arc` holding a
//! `Mutex`/`Condvar` pair — and the slot is freed when the last of its
//! two handles (the caller's and the queued job's) drops. Slots are not
//! recycled: a freelist shared by every session would cost a lock on
//! each submit, and a scrub and a second freelist lock on the last drop,
//! to save one allocation.
//!
//! A caller learns of a completion one of two ways, and completion pays
//! for a wake-up only when somebody is actually asleep. A thread blocked
//! in [`SlotHandle::wait`] is counted in `waiters`, and the condvar is
//! signalled only when that count is non-zero. A TCP reactor blocked in
//! `poll(2)` (DESIGN.md §13.2) leaves its [`Waker`] in the slot at submit
//! time; completion hands that waker one `wake`, which writes a byte to
//! the reactor's wake channel only if the reactor has *armed* it — it is
//! about to block or blocked — so a batch of completions costs one
//! `write` and completions delivered to an awake reactor cost none.

use std::io::{Read, Write};
use std::os::fd::{AsRawFd, RawFd};
use std::os::unix::net::UnixStream;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use parking_lot::{Condvar, Mutex};
use vital_runtime::ControlResponse;

/// Gets one TCP reactor out of its `poll(2)` wait: a non-blocking socket
/// pair whose read end sits in the reactor's poll set, guarded by an
/// `armed` flag so that only a wake-up somebody is waiting for costs a
/// syscall.
///
/// The protocol is Dekker's: the reactor [`arm`](Waker::arm)s, *then*
/// re-checks everything a waker may have published, then blocks; a waker
/// publishes, *then* [`wake`](Waker::wake)s (tests-and-clears the flag).
/// Both flag accesses are `SeqCst`, so at least one side sees the other:
/// either the reactor's re-check finds the publication, or the waker
/// finds the flag set and writes the byte that ends the wait.
pub(crate) struct Waker {
    armed: AtomicBool,
    tx: UnixStream,
    rx: UnixStream,
}

impl Waker {
    pub(crate) fn new() -> std::io::Result<Arc<Waker>> {
        let (tx, rx) = UnixStream::pair()?;
        tx.set_nonblocking(true)?;
        rx.set_nonblocking(true)?;
        Ok(Arc::new(Waker {
            armed: AtomicBool::new(false),
            tx,
            rx,
        }))
    }

    /// The descriptor that turns readable when a wake-up was written.
    pub(crate) fn fd(&self) -> RawFd {
        self.rx.as_raw_fd()
    }

    /// Announces that the owner is about to block. Everything a waker may
    /// publish must be re-checked *after* this call and before blocking.
    pub(crate) fn arm(&self) {
        self.armed.store(true, Ordering::SeqCst);
    }

    /// The owner is awake again: wakers stop paying for the syscall.
    pub(crate) fn disarm(&self) {
        self.armed.store(false, Ordering::SeqCst);
    }

    /// Discards the wake-up bytes written so far; returns how many.
    pub(crate) fn drain(&self) -> u64 {
        let mut buf = [0u8; 64];
        let mut drained = 0;
        while let Ok(n @ 1..) = (&self.rx).read(&mut buf) {
            drained += n as u64;
        }
        drained
    }

    /// Call after publishing: ends the owner's wait if it is armed. The
    /// first waker to find the flag set clears it and writes the byte, so
    /// any number of wake-ups between two waits cost one `write`.
    pub(crate) fn wake(&self) {
        if self.armed.swap(false, Ordering::SeqCst) {
            // A full channel already holds a pending wake-up.
            let _ = (&self.tx).write(&[1]);
        }
    }
}

struct SlotState {
    response: Option<ControlResponse>,
    /// Threads currently parked in [`SlotHandle::wait`]. Completion skips
    /// the condvar signal when this is zero.
    waiters: u32,
    /// The submitting reactor's waker, if the caller is one; taken by
    /// completion.
    waker: Option<Arc<Waker>>,
}

struct Slot {
    state: Mutex<SlotState>,
    done: Condvar,
}

/// A cloneable handle on one request's completion slot. The worker
/// [`complete`](SlotHandle::complete)s it exactly once; the client
/// [`wait`](SlotHandle::wait)s with a deadline, or
/// [`try_take`](SlotHandle::try_take)s once its [`Waker`] said so.
#[derive(Clone)]
pub(crate) struct SlotHandle(Arc<Slot>);

impl SlotHandle {
    /// A fresh slot for one request; freed when the last handle drops.
    pub(crate) fn new() -> Self {
        SlotHandle(Arc::new(Slot {
            state: Mutex::new(SlotState {
                response: None,
                waiters: 0,
                waker: None,
            }),
            done: Condvar::new(),
        }))
    }

    /// Names the reactor to wake when this slot completes. Call before
    /// the job is queued.
    pub(crate) fn set_waker(&self, waker: Arc<Waker>) {
        self.0.state.lock().waker = Some(waker);
    }

    /// Publishes the response; wakes the waiter only if one is parked,
    /// and the submitting reactor only if it is armed.
    pub(crate) fn complete(&self, resp: ControlResponse) {
        let mut state = self.0.state.lock();
        state.response = Some(resp);
        let parked = state.waiters > 0;
        let waker = state.waker.take();
        drop(state);
        if parked {
            self.0.done.notify_all();
        }
        if let Some(waker) = waker {
            waker.wake();
        }
    }

    /// `true` once the response is published and not yet taken.
    pub(crate) fn is_complete(&self) -> bool {
        self.0.state.lock().response.is_some()
    }

    /// Takes the response if it has already arrived, without blocking.
    pub(crate) fn try_take(&self) -> Option<ControlResponse> {
        self.0.state.lock().response.take()
    }

    /// Blocks until the response arrives or `timeout` elapses. `None`
    /// means the caller gave up — the request may still execute.
    pub(crate) fn wait(&self, timeout: Duration) -> Option<ControlResponse> {
        let deadline = Instant::now() + timeout;
        let mut state = self.0.state.lock();
        loop {
            if let Some(resp) = state.response.take() {
                return Some(resp);
            }
            if Instant::now() >= deadline {
                return None;
            }
            state.waiters += 1;
            self.0.done.wait_until(&mut state, deadline);
            state.waiters -= 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::poll::{self, PollFd, POLLIN};

    #[test]
    fn wait_times_out_without_completion() {
        let slot = SlotHandle::new();
        assert!(slot.wait(Duration::from_millis(10)).is_none());
    }

    #[test]
    fn try_take_polls_without_blocking() {
        let slot = SlotHandle::new();
        assert!(slot.try_take().is_none());
        slot.complete(ControlResponse::Undeployed { tenant: 9 });
        assert_eq!(
            slot.try_take(),
            Some(ControlResponse::Undeployed { tenant: 9 })
        );
        assert!(slot.try_take().is_none(), "one-shot: taken means gone");
    }

    #[test]
    fn wait_sees_completion_from_another_thread() {
        let slot = SlotHandle::new();
        let remote = slot.clone();
        let t = std::thread::spawn(move || {
            remote.complete(ControlResponse::Undeployed { tenant: 1 });
        });
        let resp = slot.wait(Duration::from_secs(5)).expect("completed");
        assert_eq!(resp, ControlResponse::Undeployed { tenant: 1 });
        t.join().unwrap();
    }

    fn readable(waker: &Waker, timeout: Duration) -> bool {
        let mut fds = [
            PollFd::new(Some(waker.fd()), POLLIN),
            PollFd::new(None, POLLIN),
        ];
        let ready = poll::wait(&mut fds, Some(timeout)).unwrap();
        assert_eq!(fds[1].revents(), 0, "placeholder entries are skipped");
        ready == 1 && fds[0].revents() & POLLIN != 0
    }

    #[test]
    fn completion_wakes_an_armed_waker_with_one_byte_per_wait() {
        let waker = Waker::new().unwrap();
        let slots: Vec<_> = (0..3).map(|_| SlotHandle::new()).collect();
        for s in &slots {
            s.set_waker(Arc::clone(&waker));
        }

        // Awake owner: a completion costs no write.
        slots[0].complete(ControlResponse::Undeployed { tenant: 0 });
        assert!(slots[0].is_complete());
        let t0 = Instant::now();
        assert!(!readable(&waker, Duration::from_micros(1500)));
        assert!(t0.elapsed() >= Duration::from_micros(1500), "rounded up");

        // Armed owner: a batch of completions costs exactly one.
        waker.arm();
        slots[1].complete(ControlResponse::Undeployed { tenant: 1 });
        slots[2].complete(ControlResponse::Undeployed { tenant: 2 });
        assert!(readable(&waker, Duration::from_secs(5)));
        waker.disarm();
        assert_eq!(waker.drain(), 1);
        assert_eq!(Arc::strong_count(&waker), 1, "completion takes the waker");
    }

    /// Every order in which `wakers` threads (publish, then `wake`) can
    /// interleave with the reactor's arm, re-check, then look at the
    /// descriptor: sequences of thread ids, the reactor being `wakers`.
    fn interleavings(wakers: usize) -> Vec<Vec<usize>> {
        fn extend(left: &mut [usize], prefix: &mut Vec<usize>, out: &mut Vec<Vec<usize>>) {
            if left.iter().all(|&n| n == 0) {
                out.push(prefix.clone());
                return;
            }
            for thread in 0..left.len() {
                if left[thread] > 0 {
                    left[thread] -= 1;
                    prefix.push(thread);
                    extend(left, prefix, out);
                    prefix.pop();
                    left[thread] += 1;
                }
            }
        }
        let mut steps = vec![2; wakers];
        steps.push(3);
        let mut out = Vec::new();
        extend(&mut steps, &mut Vec::new(), &mut out);
        out
    }

    /// Runs one interleaving on a real `Waker`, one step at a time on this
    /// thread, and checks the protocol's three promises.
    fn check_interleaving(order: &[usize], wakers: usize) {
        let waker = Waker::new().unwrap();
        let published: Vec<AtomicBool> = (0..wakers).map(|_| AtomicBool::new(false)).collect();
        let mut next_step = vec![0; wakers + 1];
        let mut rechecked = None;
        let mut bytes_before_block = None;
        for &thread in order {
            let step = next_step[thread];
            next_step[thread] += 1;
            if thread < wakers {
                match step {
                    0 => published[thread].store(true, Ordering::SeqCst),
                    _ => waker.wake(),
                }
            } else {
                match step {
                    0 => waker.arm(),
                    1 => rechecked = Some(published.iter().any(|p| p.load(Ordering::SeqCst))),
                    _ => {
                        let any_published = published.iter().any(|p| p.load(Ordering::SeqCst));
                        let bytes = waker.drain();
                        assert!(
                            bytes == 0 || any_published,
                            "{order:?}: a wake-up byte without a publication"
                        );
                        bytes_before_block = Some(bytes);
                    }
                }
            }
        }
        let (saw, before) = (rechecked.unwrap(), bytes_before_block.unwrap());
        // What a reactor blocked after its last step would find readable.
        let during_block = waker.drain();
        assert!(
            before + during_block <= 1,
            "{order:?}: {} bytes for one arm",
            before + during_block
        );
        assert!(
            saw || before > 0 || during_block > 0,
            "{order:?}: the re-check missed a publication and nothing ends the wait"
        );
    }

    #[test]
    fn waker_protocol_loses_no_wake_up_in_any_interleaving() {
        for (wakers, expected) in [(1, 10), (2, 210)] {
            let orders = interleavings(wakers);
            assert_eq!(orders.len(), expected, "{wakers} waker(s)");
            for order in &orders {
                check_interleaving(order, wakers);
            }
        }
    }
}
