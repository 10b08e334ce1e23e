// R4 positive (file-level): `set_lock_no_quiesce` promotes every section
// under the lock to the no-drain path, so a privatizing section in the
// same file is suspect even without an in-body `no_quiesce()`.

fn setup(sys: &TmSystem, lock: &ElidableMutex) {
    sys.set_lock_no_quiesce(lock, true); //~ R4
}

fn drain_one(th: &ThreadHandle, lock: &ElidableMutex, slot: &TCell<*mut u8>) {
    th.tx(lock).run(|ctx| {
        let p = ctx.read(slot)?;
        ctx.write(slot, core::ptr::null_mut())?;
        drop(unsafe { Box::from_raw(p) });
        Ok(())
    });
}
