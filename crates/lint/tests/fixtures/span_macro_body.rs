// Span quality: a violation inside a macro_rules! template must be
// reported at the offending token's own position inside the macro body —
// not at the macro definition or an invocation. The `@<col>` markers pin
// the exact column of the innermost offending token.

macro_rules! logged_bump {
    ($th:expr, $lock:expr, $cell:expr) => {
        $th.tx($lock).run(|ctx| {
            let v = ctx.read($cell)?;
            println!("bump to {}", v + 1); //~ R1 @13
            ctx.write($cell, v + 1)?;
            Ok(())
        })
    };
}

macro_rules! locked_push {
    ($th:expr, $lock:expr, $side:expr) => {
        $th.tx($lock).run(|ctx| {
            let mut g = $side.lock(); //~ R2 @31
            g.push(ctx.tag()?);
            Ok(())
        })
    };
}

fn drive(th: &ThreadHandle, lock: &ElidableMutex, cell: &TCell<u64>, side: &Mutex<Vec<u8>>) {
    logged_bump!(th, &lock, &cell);
    locked_push!(th, &lock, &side);
}
