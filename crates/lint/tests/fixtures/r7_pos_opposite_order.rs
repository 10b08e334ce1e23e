//! R7 positive: two sections take the same pair of locks in opposite
//! orders — the paper's §V x265 deadlock shape. Each inner acquisition is
//! simultaneously a nested-lock violation (R2) and an edge of the
//! lock-order cycle (R7).

static PAGE: ElidableMutex<u64> = ElidableMutex::new("page");
static ROW: ElidableMutex<u64> = ElidableMutex::new("row");

fn forward(th: &Thread) {
    th.tx(&PAGE).run(|ctx| {
        th.tx(&ROW).run(|inner| { Ok(()) }) //~ R2,R7 @12
    });
}

fn reverse(th: &Thread) {
    th.tx(&ROW).run(|ctx| {
        th.tx(&PAGE).run(|inner| { Ok(()) }) //~ R2,R7 @12
    });
}
