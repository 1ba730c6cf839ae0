//! The paper's claims about who commits, pinned as exact counts.
//!
//! Each test replays seeded schedules of `zstm_sim::claims` through
//! `run_schedule`, which polls every logical thread on the caller's thread
//! one step at a time, so every count below is the same integer in debug
//! and release and on every box. The figures of `zstm_bench::FIGURES` that
//! illustrate these claims (`fig6`, `fig7`, `ablation-r`, `contention`)
//! name the test that gates them. A change that moves a count says why.

use zstm::core::{AbortReason, CmPolicy, StmConfig, TxKind, TxStats};
use zstm_sim::claims::{self, CONTENTION_MIX, PLAUSIBLE_MIX};
use zstm_sim::fuzz::Engine;
use zstm_sim::Schedule;

use AbortReason::{Killed, ReadValidation, WriteConflict, ZoneCross};
use TxKind::{Long, Short};

/// Compute-Totals of the bank schedules.
const TOTALS: u64 = 10;
const THREADS: usize = 3;
const SEED: u64 = 1;

fn run(engine: Engine, config: StmConfig, schedule: &Schedule) -> TxStats {
    engine.run(false, config, schedule).stats
}

fn bank(engine: Engine, accounts: usize, update: bool) -> TxStats {
    let schedule = claims::bank(accounts, TOTALS as usize, THREADS, update, SEED);
    run(engine, StmConfig::new(THREADS), &schedule)
}

/// `(commits, aborts)` of one kind.
fn tally(stats: &TxStats, kind: TxKind) -> (u64, u64) {
    (stats.commits(kind), stats.aborts(kind))
}

/// Figure 7: the update Compute-Total commits on Z-STM and starves on
/// LSA-STM, at the paper's 1000 accounts and at 16. Z pays with transfers:
/// one that would cross the active zone aborts with `ZoneCross`.
#[test]
fn figure7_z_commits_every_update_total_and_lsa_none() {
    // (accounts, Z's transfers (commits, ZoneCross aborts), LSA's transfer commits)
    for (accounts, z_transfers, lsa_transfers) in [(16, (114, 35), 152), (1000, (1840, 2282), 4117)]
    {
        let z = bank(Engine::Z, accounts, true);
        assert_eq!(tally(&z, Long), (TOTALS, 0), "Z at {accounts} accounts");
        let transfers = (z.commits(Short), z.aborts_for(ZoneCross));
        assert_eq!(transfers, z_transfers, "Z at {accounts} accounts");
        let lsa = bank(Engine::Lsa, accounts, true);
        assert_eq!(tally(&lsa, Long), (0, TOTALS), "LSA at {accounts} accounts");
        assert_eq!(
            lsa.commits(Short),
            lsa_transfers,
            "LSA at {accounts} accounts"
        );
    }
}

/// Figure 6: a read-only Compute-Total commits on LSA-STM, with and
/// without read sets, and on Z-STM: a snapshot needs no validation.
#[test]
fn figure6_every_engine_commits_every_read_only_total() {
    // (engine, transfer commits at 16 accounts, at 1000)
    let engines = [
        (Engine::Lsa, [147, 4116]),
        (Engine::LsaNoReadSets, [147, 4116]),
        (Engine::Z, [113, 1653]),
    ];
    for (engine, transfers) in engines {
        for (accounts, transfers) in [16, 1000].into_iter().zip(transfers) {
            let stats = bank(engine, accounts, false);
            let at = format!("{} at {accounts} accounts", engine.name());
            assert_eq!(tally(&stats, Long), (TOTALS, 0), "{at}");
            assert_eq!(stats.commits(Short), transfers, "{at}");
        }
    }
}

/// §4.3: a plausible clock of r < n entries orders concurrent commits, and
/// a read ordered after a concurrent write fails validation. Fewer entries
/// abort more: summed over four seeds on six threads, `ReadValidation`
/// aborts do not rise from r = 1 to r = 2 to the vector clock, and the
/// vector clock's are strictly fewer than r = 1's.
#[test]
fn section_4_3_smaller_plausible_clocks_abort_more() {
    const CS_THREADS: usize = 6;
    let clocks = [Engine::CsPlausible1, Engine::CsPlausible2, Engine::Cs];
    let mut aborts = [0; 3];
    for seed in 1..=4 {
        let schedule = claims::array(PLAUSIBLE_MIX, CS_THREADS, 40, seed);
        for (sum, engine) in aborts.iter_mut().zip(clocks) {
            *sum += run(engine, StmConfig::new(CS_THREADS), &schedule).aborts_for(ReadValidation);
        }
    }
    assert!(aborts.windows(2).all(|w| w[0] >= w[1]), "{aborts:?}");
    assert!(aborts[2] < aborts[0], "{aborts:?}");
    assert_eq!(aborts, [55, 50, 43]);
}

/// The contention managers on LSA-STM, each on the same schedule. What
/// `CmPolicy::resolve` decides shows in the counts: Suicide never kills,
/// Aggressive never gives way, and the waiting policies end as their
/// escalation does, because on one OS thread no opponent can end a wait.
#[test]
fn contention_managers_decide_who_gives_way() {
    let schedule = claims::array(CONTENTION_MIX, THREADS, 40, SEED);
    let [aggressive, suicide, polite, karma, timestamp, greedy] = CmPolicy::ALL.map(|policy| {
        let mut config = StmConfig::new(THREADS);
        config.cm(policy);
        run(Engine::Lsa, config, &schedule)
    });
    assert_eq!(suicide.aborts_for(Killed), 0);
    assert_eq!(aggressive.aborts_for(WriteConflict), 0);
    assert_eq!(polite, aggressive);
    assert_eq!(karma, aggressive);
    assert_eq!(timestamp, greedy);
    // (commits, Killed, WriteConflict, ReadValidation)
    let counts = |stats: &TxStats| {
        let by = |reason| stats.aborts_for(reason);
        (
            stats.total_commits(),
            by(Killed),
            by(WriteConflict),
            by(ReadValidation),
        )
    };
    assert_eq!(counts(&aggressive), (64, 47, 0, 9));
    assert_eq!(counts(&suicide), (64, 0, 44, 12));
    assert_eq!(counts(&timestamp), (66, 13, 30, 11));
}
