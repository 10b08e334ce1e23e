//! Transitive R1 across two hops: block -> flush -> write_out. The
//! finding's related spans walk the whole chain to the `fs::` access.

fn write_out(bytes: &[u8]) {
    fs::write("/tmp/out.bin", bytes);
}

fn flush(buf: &Buffer) {
    write_out(&buf.bytes);
}

fn commit(th: &Thread, lock: &ElidableMutex<u64>, buf: &Buffer) {
    th.tx(lock).run(|ctx| {
        flush(buf); //~ R1
        Ok(())
    });
}
