// The paper's Figure 1 and Figure 3 (left) schedules, driven through the
// SPI on any engine. `include!`d by the unit tests of `zstm-cs` and
// `zstm-sstm`, which both run them through `zstm_cs::algorithm1::CausalTx`.
// Logical threads are explicit objects, so one OS thread interleaves the
// transactions exactly as drawn.

/// Figure 1: T1 writes {o1, o2}; T2 writes {o3}; the long TL reads o1, o2
/// before T1's commit and o3 after T2's commit, then writes o4. Returns
/// TL's commit: a single-clock TBTM aborts it; under vector time T1 ∥ T2,
/// so the serialization T2 → TL → T1 is causally fine and all three commit.
fn figure_1_schedule<F: zstm_core::TmFactory>(
    stm: &std::sync::Arc<F>,
) -> Result<(), zstm_core::Abort> {
    use zstm_core::{TmThread, TmTx, TxKind};
    let [o1, o2, o3, o4] = [0; 4].map(|init: i64| stm.new_var(init));
    let mut p1 = stm.register_thread();
    let mut p2 = stm.register_thread();
    let mut p3 = stm.register_thread();

    // TL starts and reads o1, o2 (pre-update versions).
    let mut tl = p3.begin(TxKind::Long);
    tl.read(&o1).expect("TL r(o1)");
    tl.read(&o2).expect("TL r(o2)");

    // T1 commits updates to o1, o2 — after TL read them.
    let mut t1 = p1.begin(TxKind::Short);
    t1.write(&o1, 1).expect("T1 w(o1)");
    t1.write(&o2, 1).expect("T1 w(o2)");
    t1.commit().expect("T1 commits");

    // T2 commits an update to o3.
    let mut t2 = p2.begin(TxKind::Short);
    t2.write(&o3, 1).expect("T2 w(o3)");
    t2.commit().expect("T2 commits");

    // TL reads o3 (T2's version) and writes o4.
    tl.read(&o3).expect("TL r(o3)");
    tl.write(&o4, 1).expect("TL w(o4)");
    tl.commit()
}

/// Figure 3, T1's case: T1 reads o3, then T2 overwrites o3, writes o1 and
/// commits; T1 reads o1 — T2's version — so T2.ct ≺ T1.ct, yet T1 read the
/// o3 version T2 overwrote. Returns T1's commit, which must fail: T1 both
/// precedes and follows T2.
fn figure_3_left_schedule<F: zstm_core::TmFactory>(
    stm: &std::sync::Arc<F>,
) -> Result<(), zstm_core::Abort> {
    use zstm_core::{TmThread, TmTx, TxKind};
    let [o1, o3] = [0; 2].map(|init: i64| stm.new_var(init));
    let mut p1 = stm.register_thread();
    let mut p2 = stm.register_thread();

    let mut t1 = p1.begin(TxKind::Short);
    t1.read(&o3).expect("T1 r(o3)");

    let mut t2 = p2.begin(TxKind::Short);
    t2.write(&o3, 2).expect("T2 w(o3)");
    t2.write(&o1, 2).expect("T2 w(o1)");
    t2.commit().expect("T2 commits");

    t1.read(&o1).expect("T1 r(o1)");
    t1.write(&o1, 3).expect("T1 w(o1)");
    t1.commit()
}
