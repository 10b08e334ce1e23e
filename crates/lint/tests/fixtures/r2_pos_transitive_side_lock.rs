//! Transitive R2: the helper acquires a side lock while the atomic block
//! holds its own — the two-phase-locking shape, laundered through a call.

fn push_pending(q: &Queue, item: u64) {
    q.pending.lock().push(item);
}

fn submit(th: &Thread, lock: &ElidableMutex<u64>, q: &Queue) {
    th.tx(lock).run(|ctx| {
        push_pending(q, 7); //~ R2
        Ok(())
    });
}
