//! Rendering of the paper's tables, figure and studies from the runs of
//! [`crate::suite_runner::run_suite`], and the paper's qualitative
//! claims about them.

use prism_core::protocol::latency::PitTechnology;
use prism_core::PolicyKind;
use prism_workloads::{suite, AppId, Scale};

use crate::microbench::Table1Row;
use crate::suite_runner::{Program, RunKey, SuiteRun};

/// Renders Table 1 (measured vs paper latencies).
pub fn render_table1(rows: &[Table1Row]) -> String {
    let mut out = String::new();
    out.push_str("Table 1: cache miss latencies and page fault overheads (cycles)\n");
    out.push_str(&format!(
        "{:<42} {:>8} {:>10} {:>7}\n",
        "Memory Access Type", "Paper", "Measured", "Ratio"
    ));
    for r in rows {
        out.push_str(&format!(
            "{:<42} {:>8} {:>10.1} {:>7.3}\n",
            r.name,
            r.paper,
            r.measured,
            r.ratio()
        ));
    }
    out
}

/// Renders Table 2 (application descriptions at the given scale).
pub fn render_table2(scale: Scale) -> String {
    let mut out = String::new();
    out.push_str("Table 2: application benchmark types and data sets\n");
    out.push_str(&format!(
        "{:<12} {}\n",
        "Application", "Problem Description and Size"
    ));
    for (id, w) in suite(scale) {
        out.push_str(&format!("{:<12} {}\n", id.to_string(), w.description()));
    }
    out
}

/// Renders Figure 7 (execution time normalized to SCOMA) as a text
/// table plus ASCII bars.
pub fn render_figure7(run: &SuiteRun) -> String {
    let mut out = String::new();
    out.push_str("Figure 7: execution time under different page modes, normalized to SCOMA\n");
    out.push_str(&format!("{:<12}", "App"));
    for p in PolicyKind::ALL {
        out.push_str(&format!("{:>10}", p.to_string()));
    }
    out.push('\n');
    for id in AppId::ALL {
        out.push_str(&format!("{id:<12}"));
        for p in PolicyKind::ALL {
            out.push_str(&format!(
                "{:>10.2}",
                run.normalized_time(RunKey::app(id, p))
            ));
        }
        out.push('\n');
    }
    out.push('\n');
    // ASCII bars (one row per app × config), capped at 4.0 for display.
    for id in AppId::ALL {
        for p in PolicyKind::ALL {
            let v = run.normalized_time(RunKey::app(id, p));
            let bar = "#".repeat(((v.min(4.0)) * 12.0) as usize);
            out.push_str(&format!(
                "{:<12} {:<9} {:>5.2} |{}\n",
                id.to_string(),
                p.to_string(),
                v,
                bar
            ));
        }
        out.push('\n');
    }
    out
}

/// Renders Table 3 (page frames allocated and average utilization for
/// SCOMA and LANUMA).
pub fn render_table3(run: &SuiteRun) -> String {
    let mut out = String::new();
    out.push_str("Table 3: page consumption and utilization statistics\n");
    out.push_str(&format!(
        "{:<12} {:>12} {:>12} {:>12} {:>12}\n",
        "", "Frames", "Frames", "Utilization", "Utilization"
    ));
    out.push_str(&format!(
        "{:<12} {:>12} {:>12} {:>12} {:>12}\n",
        "Application", "SCOMA", "LANUMA", "SCOMA", "LANUMA"
    ));
    for id in AppId::ALL {
        let s = run.report(RunKey::app(id, PolicyKind::Scoma));
        let l = run.report(RunKey::app(id, PolicyKind::Lanuma));
        out.push_str(&format!(
            "{:<12} {:>12} {:>12} {:>12.3} {:>12.3}\n",
            id.to_string(),
            s.frames_allocated,
            l.frames_allocated,
            s.avg_utilization,
            l.avg_utilization
        ));
    }
    out
}

/// Renders Table 4 (remote misses in the static configurations and
/// SCOMA-70 page-outs).
pub fn render_table4(run: &SuiteRun) -> String {
    let mut out = String::new();
    out.push_str("Table 4: remote misses (static configurations) and SCOMA-70 page-outs\n");
    out.push_str(&format!(
        "{:<12} {:>12} {:>12} {:>12} {:>12}\n",
        "Application", "SCOMA", "LANUMA", "SCOMA-70", "Page-Outs"
    ));
    for id in AppId::ALL {
        let r = |p| run.report(RunKey::app(id, p));
        out.push_str(&format!(
            "{:<12} {:>12} {:>12} {:>12} {:>12}\n",
            id.to_string(),
            r(PolicyKind::Scoma).remote_misses,
            r(PolicyKind::Lanuma).remote_misses,
            r(PolicyKind::Scoma70).remote_misses,
            r(PolicyKind::Scoma70).page_outs
        ));
    }
    out
}

/// Renders Table 5 (remote misses and page-outs in the adaptive
/// configurations).
pub fn render_table5(run: &SuiteRun) -> String {
    let mut out = String::new();
    out.push_str("Table 5: remote misses and page-outs (adaptive configurations)\n");
    out.push_str(&format!(
        "{:<12} {:>12} {:>12} {:>12} {:>12} {:>12}\n",
        "Application", "Dyn-FCFS", "Dyn-Util", "Dyn-LRU", "PO(Util)", "PO(LRU)"
    ));
    for id in AppId::ALL {
        let r = |p| run.report(RunKey::app(id, p));
        out.push_str(&format!(
            "{:<12} {:>12} {:>12} {:>12} {:>12} {:>12}\n",
            id.to_string(),
            r(PolicyKind::DynFcfs).remote_misses,
            r(PolicyKind::DynUtil).remote_misses,
            r(PolicyKind::DynLru).remote_misses,
            r(PolicyKind::DynUtil).page_outs,
            r(PolicyKind::DynLru).page_outs
        ));
    }
    out.push_str("(Dyn-FCFS never pages out, as in the paper.)\n");
    out
}

/// A study beyond Figure 7 and Tables 1–5: it renders its section of
/// `tables` from the runs [`study_keys`] declares, and appends each of
/// its claims that fails.
type Study = fn(&SuiteRun, &mut Vec<String>) -> String;

const STUDIES: [Study; 6] = [pit, migration, status_flag, ccnuma, dyn_both, capacity];

/// Every run the studies read, as keys; those that are suite runs are
/// reused, not run again.
pub fn study_keys() -> Vec<RunKey> {
    let mut keys = vec![fixed_homes(), lazy_migration()];
    for id in AppId::ALL {
        // The PIT, status-flag, CC-NUMA and Dyn-Both studies.
        keys.extend([
            lanuma(id),
            dram_pit(id),
            flag_on(id),
            flag_off(id),
            bypassed(id),
        ]);
        keys.extend(ADAPTIVE.map(|p| RunKey::app(id, p)));
    }
    for id in CAPACITY_APPS {
        keys.extend(CAPACITY_PCTS.map(|pct| limited(id, pct)));
    }
    keys
}

/// The studies' sections of `tables` in print order, and their violated
/// claims.
pub fn studies(run: &SuiteRun) -> (Vec<String>, Vec<String>) {
    let mut violations = Vec::new();
    let sections = STUDIES.map(|study| study(run, &mut violations));
    (sections.into(), violations)
}

/// The paper's claims this reproduction is known not to meet at paper
/// scale (EXPERIMENTS.md "Known deviations"). `tables` lists them, and
/// fails on any other violation or when one of these starts to hold.
pub const KNOWN_DEVIATIONS: [&str; 1] =
    ["Barnes: a DRAM PIT should slow Barnes the most (paper: 16%)"];

fn lanuma(id: AppId) -> RunKey {
    RunKey::app(id, PolicyKind::Lanuma)
}

fn dram_pit(id: AppId) -> RunKey {
    let mut key = lanuma(id);
    key.spec.pit = PitTechnology::Dram;
    key
}

fn bypassed(id: AppId) -> RunKey {
    let mut key = lanuma(id);
    key.spec.pit = PitTechnology::BypassedCcNuma;
    key
}

/// How much longer `slow` runs than `fast`, in percent.
fn slowdown_pct(run: &SuiteRun, slow: RunKey, fast: RunKey) -> f64 {
    (run.cycles(slow) as f64 / run.cycles(fast) as f64 - 1.0) * 100.0
}

/// §4.3: the PIT in DRAM (10-cycle lookups) instead of SRAM (2 cycles).
/// The paper reports <2% slowdown for most applications, ~5% for FFT,
/// and 16% for Barnes.
fn pit(run: &SuiteRun, v: &mut Vec<String>) -> String {
    let mut out = String::from(
        "PIT technology sensitivity (LANUMA pages exercise the PIT on every remote access)\n\
         Application   SRAM (cycles)  DRAM (cycles)  Slowdown\n",
    );
    let slowdown = |id| slowdown_pct(run, dram_pit(id), lanuma(id));
    for id in AppId::ALL {
        let slow = slowdown(id);
        let (sram, dram) = (run.cycles(lanuma(id)), run.cycles(dram_pit(id)));
        out += &format!("{id:<12} {sram:>14} {dram:>14} {slow:>8.1}%\n");
        if slow < 0.0 {
            v.push(format!(
                "{id}: a DRAM PIT should not speed LANUMA up ({slow:.1}%)"
            ));
        }
        // Barnes is the paper's one outlier; its own claim follows.
        if id != AppId::Barnes && slow > 5.0 {
            v.push(format!(
                "{id}: a DRAM PIT slows LANUMA by more than 5% ({slow:.1}%)"
            ));
        }
    }
    let barnes = slowdown(AppId::Barnes);
    if AppId::ALL.iter().any(|&id| slowdown(id) > barnes) {
        v.push("Barnes: a DRAM PIT should slow Barnes the most (paper: 16%)".into());
    }
    out
}

fn fixed_homes() -> RunKey {
    RunKey::new(Program::Migratory, PolicyKind::Scoma)
}

fn lazy_migration() -> RunKey {
    let mut key = fixed_homes();
    key.spec.migration = true;
    key
}

/// §3.5: lazy home migration on a migratory-sharing synthetic. The
/// dynamic home follows the activity with no global coordination, and
/// static-home forwarding heals stale client hints.
fn migration(run: &SuiteRun, v: &mut Vec<String>) -> String {
    let mut out = String::from(
        "Lazy home migration on a migratory-sharing workload\n\
         Config                  Exec (cycles)     Remote Migrations   Forwards\n",
    );
    let (fixed, lazy) = (run.report(fixed_homes()), run.report(lazy_migration()));
    for (name, r) in [("fixed homes", fixed), ("lazy migration", lazy)] {
        let (exec, remote, migrations) = (r.exec_cycles.as_u64(), r.remote_misses, r.migrations);
        let forwards = r.forwards;
        out += &format!("{name:<22} {exec:>14} {remote:>10} {migrations:>10} {forwards:>10}\n");
    }
    if fixed.migrations + fixed.forwards > 0 {
        v.push("Migratory: fixed homes should never migrate or forward".into());
    }
    if lazy.migrations == 0 {
        v.push("Migratory: lazy migration should move homes".into());
    }
    if lazy.forwards == 0 {
        v.push("Migratory: static homes should forward on stale hints".into());
    }
    if lazy.exec_cycles >= fixed.exec_cycles {
        v.push("Migratory: lazy migration should save time".into());
    }
    out
}

fn flag_on(id: AppId) -> RunKey {
    RunKey::app(id, PolicyKind::Scoma70)
}

fn flag_off(id: AppId) -> RunKey {
    let mut key = flag_on(id);
    key.spec.home_status_flag = false;
    key
}

/// §3.3: with the home-page-status flag, a client refault on a page
/// known to be resident at its home skips the page-in message (2300 vs
/// 4400 cycles). SCOMA-70's page-outs force the refaults.
fn status_flag(run: &SuiteRun, v: &mut Vec<String>) -> String {
    let mut out = String::from(
        "Home-page-status flag optimization under SCOMA-70 paging pressure\n\
         Application         flag on       flag off     Saved     Refaults\n",
    );
    for id in AppId::ALL {
        let (on, off) = (run.cycles(flag_on(id)), run.cycles(flag_off(id)));
        let saved = (1.0 - on as f64 / off as f64) * 100.0;
        let refaults = run.report(flag_on(id)).page_outs;
        out += &format!("{id:<12} {on:>14} {off:>14} {saved:>8.1}% {refaults:>12}\n");
        if on > off {
            v.push(format!(
                "{id}: the home-page-status flag should never slow a run"
            ));
        }
    }
    out
}

/// §3.2 extension, §4.3: "with a PIT implemented in SRAM, LA-NUMA pages
/// will not significantly degrade application performance over CC-NUMA
/// pages", whose physical addresses bypass the PIT. The bypass costs
/// CC-NUMA the PIT's fault containment and lazy migration.
fn ccnuma(run: &SuiteRun, v: &mut Vec<String>) -> String {
    let mut out = String::from(
        "LA-NUMA (SRAM PIT) vs true CC-NUMA (no PIT on the access path)\n\
         Application         LA-NUMA        CC-NUMA PIT overhead\n",
    );
    for id in AppId::ALL {
        let overhead = slowdown_pct(run, lanuma(id), bypassed(id));
        let (la, cc) = (run.cycles(lanuma(id)), run.cycles(bypassed(id)));
        out += &format!("{id:<12} {la:>14} {cc:>14} {overhead:>11.1}%\n");
        if overhead > 3.0 {
            v.push(format!(
                "{id}: LA-NUMA is more than 3% slower than CC-NUMA ({overhead:.1}%)"
            ));
        }
    }
    out + "\nLA-NUMA's price for keeping node-local physical addresses (and with\n\
           them the firewall, localized translations, and lazy migration).\n"
}

const ADAPTIVE: [PolicyKind; 3] = [PolicyKind::DynUtil, PolicyKind::DynLru, PolicyKind::DynBoth];

/// §4.3 future work: "an adaptive configuration that switches modes in
/// both directions", with Reactive-NUMA's refetch counting (Dyn-Both:
/// Dyn-LRU on overflow plus reconversion to S-COMA after 64 remote
/// refetches). It should repair the one-way policies' pathology, reuse
/// pages stuck in LA-NUMA mode, which FFT shows.
fn dyn_both(run: &SuiteRun, v: &mut Vec<String>) -> String {
    let mut out = String::from(
        "Two-directional adaptation (Dyn-Both) vs the paper's one-way policies\n\
         Application   Dyn-Util   Dyn-LRU  Dyn-Both    →LA-NUMA     →S-COMA\n",
    );
    for id in AppId::ALL {
        let [util, lru, both] = ADAPTIVE.map(|p| run.normalized_time(RunKey::app(id, p)));
        let r = run.report(RunKey::app(id, PolicyKind::DynBoth));
        let (to_la, to_s) = (r.conversions_to_lanuma, r.conversions_to_scoma);
        out += &format!("{id:<12} {util:>9.2} {lru:>9.2} {both:>9.2} {to_la:>11} {to_s:>11}\n");
        if id == AppId::Fft && both >= util.min(lru) {
            v.push("FFT: Dyn-Both should beat both Dyn-Util and Dyn-LRU".into());
        }
        if id == AppId::Fft && to_s == 0 {
            v.push("FFT: Dyn-Both should convert pages back to S-COMA".into());
        }
    }
    out
}

const CAPACITY_APPS: [AppId; 4] = [AppId::Barnes, AppId::Lu, AppId::Ocean, AppId::Radix];
const CAPACITY_PCTS: [u8; 5] = [10, 25, 50, 70, 90];

fn limited(id: AppId, pct: u8) -> RunKey {
    let mut key = RunKey::app(id, PolicyKind::Scoma70);
    key.spec.capacity_pct = Some(pct);
    key
}

/// §4.3, the Falsafi & Wood disagreement: they fixed the page cache at
/// 320 KB (5–25% of the client frames needed) and found CC-NUMA beating
/// S-COMA; PRISM sizes it at 70% and finds the opposite. Sweeping the
/// fraction on the capacity-pressure applications shows both. The 70%
/// point's claim is the suite's "SCOMA-70 should outperform LANUMA".
fn capacity(run: &SuiteRun, v: &mut Vec<String>) -> String {
    let mut out = String::from(
        "SCOMA-limited execution time (normalized to SCOMA) vs page-cache fraction\n\
         Application    LANUMA      10%      25%      50%      70%      90%",
    );
    for id in CAPACITY_APPS {
        let la = run.normalized_time(lanuma(id));
        out += &format!("\n{id:<12} {la:>8.2}");
        for pct in CAPACITY_PCTS {
            let limited = run.normalized_time(limited(id, pct));
            out += &format!(" {limited:>8.2}");
            if pct <= 25 && limited <= la {
                v.push(format!("{id}: LANUMA should beat a {pct}% page cache"));
            }
            if pct == 90 && limited >= la {
                v.push(format!("{id}: a 90% page cache should beat LANUMA"));
            }
        }
    }
    out + "\n\nSmall page caches (à la Falsafi & Wood's fixed 320 KB) favor LANUMA;\n\
           the paper's 70% rule favors SCOMA-70 — both results reproduce here.\n"
}

/// Sanity assertions on the reproduced shapes: the paper's qualitative
/// claims about Figure 7 and Tables 3–5. Returns the violated ones
/// (empty = all shapes hold); [`studies`] checks the rest.
pub fn check_shapes(run: &SuiteRun) -> Vec<String> {
    let mut violations = Vec::new();
    let mut claim = |ok: bool, what: String| {
        if !ok {
            violations.push(what);
        }
    };
    for id in AppId::ALL {
        let key = |p| RunKey::app(id, p);
        // SCOMA is the optimal baseline.
        for p in PolicyKind::ALL {
            let nt = run.normalized_time(key(p));
            claim(
                nt >= 0.85,
                format!("{id}: {p} beats SCOMA by more than noise ({nt:.2})"),
            );
        }
        // Table 3: SCOMA allocates more frames at lower utilization.
        let s = run.report(key(PolicyKind::Scoma));
        let l = run.report(key(PolicyKind::Lanuma));
        claim(
            s.frames_allocated > l.frames_allocated,
            format!("{id}: SCOMA should allocate more frames"),
        );
        // Table 4: LANUMA has at least as many remote misses as SCOMA
        // (2% tolerance: under LA-NUMA, dirty evictions return data to
        // the home sooner, which can save the home's own later fetches —
        // a marginal effect on the Water kernels).
        claim(
            l.remote_misses * 100 >= s.remote_misses * 98,
            format!("{id}: LANUMA should not have fewer remote misses than SCOMA"),
        );
        // Dyn-FCFS never pages out.
        claim(
            run.report(key(PolicyKind::DynFcfs)).page_outs == 0,
            format!("{id}: Dyn-FCFS paged out"),
        );
    }
    // Capacity-pressure apps: SCOMA-70 outperforms LANUMA
    // (paper: Barnes, LU, Ocean, Radix).
    for id in CAPACITY_APPS {
        claim(
            run.cycles(RunKey::app(id, PolicyKind::Scoma70)) < run.cycles(lanuma(id)),
            format!("{id}: SCOMA-70 should outperform LANUMA"),
        );
    }
    violations
}

/// The claims summary that ends `tables`' output, and whether it
/// passes: every violation is one of the `known` deviations, and every
/// known deviation is still a violation.
pub fn render_claims(violations: &[String], known: &[&str]) -> (String, bool) {
    let unexpected: Vec<&str> = violations
        .iter()
        .map(String::as_str)
        .filter(|v| !known.contains(v))
        .collect();
    let (expected, now_hold): (Vec<&str>, Vec<&str>) = known
        .iter()
        .partition(|k| violations.iter().any(|v| v == *k));
    let mut out = String::new();
    for (title, items) in [
        (
            "Known deviations (expected to fail, EXPERIMENTS.md)",
            &expected,
        ),
        ("Shape violations", &unexpected),
        (
            "Known deviations that now hold (take them off the list)",
            &now_hold,
        ),
    ] {
        if !items.is_empty() {
            out += &format!("{title}:\n");
            items
                .iter()
                .for_each(|item| out += &format!("  - {item}\n"));
        }
    }
    let pass = unexpected.is_empty() && now_hold.is_empty();
    if pass {
        out += "All qualitative claims of the paper hold.\n";
    }
    (out, pass)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn known_deviations_must_fail_and_nothing_else_may() {
        let v = |items: &[&str]| items.iter().map(|s| s.to_string()).collect::<Vec<_>>();
        let (out, pass) = render_claims(&v(&["old"]), &["old"]);
        assert!(pass && out.ends_with("  - old\nAll qualitative claims of the paper hold.\n"));
        let (out, pass) = render_claims(&v(&["old", "new"]), &["old"]);
        assert!(
            !pass && out.contains("Shape violations:\n  - new\n"),
            "{out}"
        );
        let (out, pass) = render_claims(&[], &["old"]);
        assert!(
            !pass && out.contains("now hold (take them off the list):\n  - old\n"),
            "{out}"
        );
    }
}
