// R5 positive: OS condition-variable protocol inside an atomic block
// (paper §III). The wait never commits the transaction, so the matching
// signal can land before the waiter's predicate write is visible — lost
// wakeups — and under elision the parked thread holds the section open.

fn os_wait(th: &ThreadHandle, lock: &ElidableMutex, cv: &Condvar, c: &TCell<bool>) {
    th.tx(lock).run(|ctx| {
        while !ctx.read(c)? {
            cv.wait_timeout(guard(), TIMEOUT); //~ R5
        }
        Ok(())
    });
}

fn os_signal(th: &ThreadHandle, lock: &ElidableMutex, cv: &StdCondvar, c: &TCell<bool>) {
    th.tx(lock).run(|ctx| {
        ctx.write(c, true)?;
        cv.notify_one(); //~ R5
        Ok(())
    });
}

fn cv_built_inside(th: &ThreadHandle, lock: &ElidableMutex, c: &TCell<bool>) {
    th.tx(lock).run(|ctx| {
        let cv = Condvar::new(); //~ R5
        ctx.write(c, true)?;
        Ok(())
    });
}
