//! Daemon-level serving metrics.
//!
//! Hot-path updates are relaxed atomics (one `fetch_add` per event);
//! the timing histograms and per-tenant ledger sit behind mutexes taken
//! once per request. [`DaemonStats::to_metrics`] snapshots everything
//! into a [`vax_obs::Metrics`] registry, which the `/metrics` endpoint
//! renders with the repo's existing Prometheus exposition — the daemon
//! adds no second metrics format, only new families.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use vax_obs::{Histogram, Metrics};

/// Counters, gauges, and the timing histograms for one daemon.
#[derive(Debug, Default)]
pub struct DaemonStats {
    /// Requests read off a connection (any verb).
    pub requests_total: AtomicU64,
    /// Requests answered `OK`.
    pub requests_ok: AtomicU64,
    /// Requests refused with a typed 4xx error.
    pub requests_rejected: AtomicU64,
    /// Connections shed at the accept queue (`ERR 429 queue-full`).
    pub requests_shed: AtomicU64,
    /// Requests refused because the daemon was draining (`503`).
    pub requests_refused_draining: AtomicU64,
    /// Children forked from a warm base.
    pub forks_total: AtomicU64,
    /// Children reaped (dropped, memory returned to the base).
    pub children_reaped: AtomicU64,
    /// Wall-clock histograms in microseconds.
    timings: Mutex<Timings>,
    /// `reason token -> count` for rejects; `tenant -> ok count` for
    /// completions.
    by_label: Mutex<ByLabel>,
}

#[derive(Debug, Default)]
struct Timings {
    /// Request latency of `OK` requests (admission → response).
    latency_us: Histogram,
    /// The copy-on-write fork of every request that forked.
    fork_us: Histogram,
    /// Payload injection and guest run of every request that forked.
    run_us: Histogram,
}

#[derive(Debug, Default)]
struct ByLabel {
    rejects: HashMap<&'static str, u64>,
    ok_by_tenant: HashMap<String, u64>,
}

impl DaemonStats {
    /// Records one completed request's latency.
    pub fn observe_latency_us(&self, us: u64) {
        lock_unpoisoned(&self.timings).latency_us.record(us);
    }

    /// Records how long one request's fork and payload run took.
    pub fn observe_fork_run_us(&self, fork_us: u64, run_us: u64) {
        let mut t = lock_unpoisoned(&self.timings);
        t.fork_us.record(fork_us);
        t.run_us.record(run_us);
    }

    /// Records an `OK` completion for `tenant`.
    pub fn record_ok(&self, tenant: &str) {
        self.requests_ok.fetch_add(1, Ordering::Relaxed);
        *lock_unpoisoned(&self.by_label)
            .ok_by_tenant
            .entry(tenant.to_string())
            .or_insert(0) += 1;
    }

    /// Records a typed rejection by its reason token.
    pub fn record_reject(&self, reason: &'static str) {
        self.requests_rejected.fetch_add(1, Ordering::Relaxed);
        *lock_unpoisoned(&self.by_label)
            .rejects
            .entry(reason)
            .or_insert(0) += 1;
    }

    /// Forks minus reaps — children alive right now. The hygiene tests
    /// assert this returns to 0 after every drain.
    pub fn children_live(&self) -> u64 {
        self.forks_total
            .load(Ordering::Relaxed)
            .saturating_sub(self.children_reaped.load(Ordering::Relaxed))
    }

    /// Snapshots everything into a metrics registry.
    ///
    /// `tenant_usage` is the admission governor's live ledger
    /// (`tenant, live children, frames in use`); `children_leaked` is
    /// the base-memory leak check's verdict (extra Arc references on
    /// the frozen base beyond the parent's own) — 0 on a healthy
    /// daemon, and tested to be.
    pub fn to_metrics(&self, tenant_usage: &[(String, u32, u64)], children_leaked: u64) -> Metrics {
        let mut m = Metrics::new();
        m.counter(
            "vaxd_requests_total",
            self.requests_total.load(Ordering::Relaxed),
        )
        .counter("vaxd_requests_ok", self.requests_ok.load(Ordering::Relaxed))
        .counter(
            "vaxd_requests_rejected",
            self.requests_rejected.load(Ordering::Relaxed),
        )
        .counter(
            "vaxd_requests_shed",
            self.requests_shed.load(Ordering::Relaxed),
        )
        .counter(
            "vaxd_requests_refused_draining",
            self.requests_refused_draining.load(Ordering::Relaxed),
        )
        .counter("vaxd_forks_total", self.forks_total.load(Ordering::Relaxed))
        .counter(
            "vaxd_children_reaped",
            self.children_reaped.load(Ordering::Relaxed),
        )
        .gauge(
            "vaxd_forked_children_live",
            Some(self.children_live() as f64),
        )
        .gauge("vaxd_children_leaked", Some(children_leaked as f64));
        {
            let t = lock_unpoisoned(&self.timings);
            m.histogram("vaxd_request_latency_us", &t.latency_us)
                .histogram("vaxd_fork_us", &t.fork_us)
                .histogram("vaxd_run_us", &t.run_us);
        }
        {
            let labels = lock_unpoisoned(&self.by_label);
            let mut rejects: Vec<_> = labels.rejects.iter().collect();
            rejects.sort();
            for (reason, n) in rejects {
                m.labeled_counter("vaxd_requests_rejected_by_reason", "reason", reason, *n);
            }
            let mut oks: Vec<_> = labels.ok_by_tenant.iter().collect();
            oks.sort();
            for (tenant, n) in oks {
                m.labeled_counter("vaxd_requests_ok_by_tenant", "tenant", tenant, *n);
            }
        }
        for (tenant, live, frames) in tenant_usage {
            m.labeled_gauge(
                "vaxd_tenant_frames_in_use",
                "tenant",
                tenant,
                *frames as f64,
            );
            m.labeled_gauge(
                "vaxd_tenant_children_live",
                "tenant",
                tenant,
                f64::from(*live),
            );
        }
        m
    }
}

fn lock_unpoisoned<T>(m: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    match m.lock() {
        Ok(g) => g,
        Err(poisoned) => poisoned.into_inner(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn snapshot_carries_families_and_labels() {
        let s = DaemonStats::default();
        s.requests_total.fetch_add(5, Ordering::Relaxed);
        s.record_ok("alice");
        s.record_ok("alice");
        s.record_ok("bob");
        s.record_reject("tenant-frames");
        s.forks_total.fetch_add(3, Ordering::Relaxed);
        s.children_reaped.fetch_add(2, Ordering::Relaxed);
        s.observe_latency_us(120);
        s.observe_latency_us(340);

        let usage = vec![("alice".to_string(), 1u32, 700u64)];
        let m = s.to_metrics(&usage, 0);
        assert_eq!(m.get_counter("vaxd_requests_total"), Some(5));
        assert_eq!(m.get_counter("vaxd_requests_ok"), Some(3));
        assert_eq!(m.get_counter("vaxd_requests_rejected"), Some(1));
        assert_eq!(m.get_gauge("vaxd_forked_children_live"), Some(Some(1.0)));
        assert_eq!(
            m.get_labeled_counter("vaxd_requests_ok_by_tenant", "tenant", "alice"),
            Some(2)
        );
        assert_eq!(
            m.get_labeled_counter(
                "vaxd_requests_rejected_by_reason",
                "reason",
                "tenant-frames"
            ),
            Some(1)
        );
        assert_eq!(
            m.get_labeled_gauge("vaxd_tenant_frames_in_use", "tenant", "alice"),
            Some(700.0)
        );
        assert_eq!(
            m.get_labeled_gauge("vaxd_tenant_children_live", "tenant", "alice"),
            Some(1.0)
        );
        let h = m.get_histogram("vaxd_request_latency_us").expect("present");
        assert_eq!(h.count(), 2);
        // Fork and run phases are present (empty) before any request forks.
        for phase in ["vaxd_fork_us", "vaxd_run_us"] {
            assert_eq!(m.get_histogram(phase).map(Histogram::count), Some(0));
        }

        let prom = m.to_prometheus();
        assert!(prom.contains("vax_vaxd_requests_ok_by_tenant{tenant=\"alice\"} 2"));
        assert!(prom.contains("# TYPE vax_vaxd_requests_total counter"));
    }

    #[test]
    fn fork_and_run_phases_are_histograms() {
        let s = DaemonStats::default();
        s.observe_fork_run_us(40, 90);
        s.observe_fork_run_us(60, 110);
        s.observe_latency_us(210);
        let m = s.to_metrics(&[], 0);
        let fork = m.get_histogram("vaxd_fork_us").expect("fork phase");
        let run = m.get_histogram("vaxd_run_us").expect("run phase");
        assert_eq!((fork.count(), fork.sum()), (2, 100));
        assert_eq!((run.count(), run.sum()), (2, 200));
        let prom = m.to_prometheus();
        for (family, help) in [
            ("vaxd_fork_us", "# HELP vax_vaxd_fork_us Wall-clock"),
            ("vaxd_run_us", "# HELP vax_vaxd_run_us Wall-clock"),
        ] {
            assert!(prom.contains(help), "{prom}");
            assert!(
                prom.contains(&format!("# TYPE vax_{family} histogram\n")),
                "{prom}"
            );
            assert!(prom.contains(&format!("vax_{family}_count 2\n")), "{prom}");
        }
    }

    #[test]
    fn every_level_family_is_typed_gauge() {
        let s = DaemonStats::default();
        s.record_ok("alice");
        s.record_reject("tenant-frames");
        s.forks_total.fetch_add(2, Ordering::Relaxed);
        s.children_reaped.fetch_add(1, Ordering::Relaxed);
        s.observe_latency_us(90);
        let usage = vec![
            ("alice".to_string(), 1u32, 700u64),
            ("bob".to_string(), 0, 0),
        ];
        let prom = s.to_metrics(&usage, 0).to_prometheus();

        // family -> declared type, from the `# TYPE` annotations.
        let mut types = HashMap::new();
        for line in prom.lines() {
            if let Some(rest) = line.strip_prefix("# TYPE ") {
                let (family, kind) = rest.split_once(' ').expect("# TYPE <family> <type>");
                assert!(
                    types.insert(family.to_string(), kind.to_string()).is_none(),
                    "{family} typed twice"
                );
            }
        }
        // Every sample belongs to a typed family.
        for line in prom.lines().filter(|l| !l.starts_with('#')) {
            let name = line.split(['{', ' ']).next().expect("sample name");
            let family = ["_bucket", "_sum", "_count"]
                .iter()
                .find_map(|suffix| {
                    name.strip_suffix(suffix)
                        .filter(|f| types.get(*f).map(String::as_str) == Some("histogram"))
                })
                .unwrap_or(name);
            assert!(types.contains_key(family), "untyped sample: {line}");
        }
        for level in [
            "vax_vaxd_forked_children_live",
            "vax_vaxd_children_leaked",
            "vax_vaxd_tenant_frames_in_use",
            "vax_vaxd_tenant_children_live",
        ] {
            assert_eq!(
                types.get(level).map(String::as_str),
                Some("gauge"),
                "{level}"
            );
        }
        for total in [
            "vax_vaxd_requests_total",
            "vax_vaxd_requests_ok",
            "vax_vaxd_forks_total",
            "vax_vaxd_children_reaped",
            "vax_vaxd_requests_ok_by_tenant",
            "vax_vaxd_requests_rejected_by_reason",
        ] {
            assert_eq!(
                types.get(total).map(String::as_str),
                Some("counter"),
                "{total}"
            );
        }
        assert!(prom.contains("vax_vaxd_tenant_frames_in_use{tenant=\"alice\"} 700\n"));
        assert!(prom.contains("vax_vaxd_tenant_children_live{tenant=\"bob\"} 0\n"));
    }

    #[test]
    fn children_live_never_underflows() {
        let s = DaemonStats::default();
        s.children_reaped.fetch_add(7, Ordering::Relaxed);
        assert_eq!(s.children_live(), 0);
    }
}
