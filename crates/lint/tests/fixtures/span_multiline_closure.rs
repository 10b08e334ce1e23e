// Span quality: in a long multi-line closure the finding must anchor on
// the offending token's own line and column, not the `tx(..).run` call line.
// The `@<col>` markers pin exact columns.

fn long_body(th: &ThreadHandle, lock: &ElidableMutex, cells: &[TCell<u64>], ops: &AtomicU64) {
    th.tx(lock).run(|ctx| {
        let mut acc = 0u64;
        for c in cells {
            acc = acc.wrapping_add(ctx.read(c)?);
        }
        if acc > 100 {
            ctx.write(&cells[0], 0)?;
        } else {
            ctx.write(&cells[0], acc)?;
        }
        ops.fetch_add(1, Ordering::Relaxed); //~ R3 @13
        let spare = acc
            .checked_mul(3)
            .unwrap_or_else(|| {
                eprintln!("overflow at {acc}"); //~ R1 @17
                0
            });
        ctx.write(&cells[1], spare)?;
        Ok(())
    });
}
