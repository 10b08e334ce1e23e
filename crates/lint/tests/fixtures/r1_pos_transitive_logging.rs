//! Transitive R1: the block body is clean to a per-block scan — the
//! irrevocable effect hides one call away. The finding anchors at the
//! call site inside the block and carries the hazard's true location as a
//! related span.

fn log_progress(done: u64) {
    println!("progress: {done}");
}

fn drain(th: &Thread, lock: &ElidableMutex<u64>, cell: &TCell<u64>) {
    th.tx(lock).run(|ctx| {
        let done = ctx.read(cell)?;
        log_progress(done); //~ R1 @9
        Ok(())
    });
}
