//! Snapshot registry and exposition formats.
//!
//! A [`Metrics`] value is a point-in-time snapshot — plain name/value
//! pairs plus named [`Histogram`] copies — assembled by whoever owns the
//! live state (the monitor, a bench harness) and rendered to JSON or
//! Prometheus text. Keeping the registry a dumb snapshot means the
//! exposition layer never touches live VMM state and needs no deps.

use crate::hist::Histogram;
use crate::prof::ProfEvent;
use crate::ring::TraceRecord;

/// A snapshot of counters, gauges, and histograms ready for exposition.
#[derive(Debug, Clone, Default)]
pub struct Metrics {
    counters: Vec<(String, u64)>,
    gauges: Vec<(String, Option<f64>)>,
    histograms: Vec<(String, Histogram)>,
    /// Labeled counter samples: (family, label key, label value, count).
    /// One family may carry many samples, one per label value — the
    /// per-tenant serving counters (`vaxd`) are the first user.
    labeled: Vec<(String, String, String, u64)>,
    /// Labeled gauge samples: (family, label key, label value, level).
    labeled_gauges: Vec<(String, String, String, f64)>,
}

impl Metrics {
    /// An empty registry.
    pub fn new() -> Metrics {
        Metrics::default()
    }

    /// Adds a monotonic counter sample.
    pub fn counter(&mut self, name: &str, value: u64) -> &mut Metrics {
        self.counters.push((name.to_string(), value));
        self
    }

    /// Adds a gauge sample. `None` renders as JSON `null` and is omitted
    /// from Prometheus output — the honest encoding for a rate whose
    /// denominator is zero (e.g. TLB hit rate with no lookups).
    pub fn gauge(&mut self, name: &str, value: Option<f64>) -> &mut Metrics {
        self.gauges.push((name.to_string(), value));
        self
    }

    /// Adds a histogram snapshot.
    pub fn histogram(&mut self, name: &str, h: &Histogram) -> &mut Metrics {
        self.histograms.push((name.to_string(), h.clone()));
        self
    }

    /// Accumulates `delta` into a counter by name, creating it at `delta`
    /// if absent. [`Metrics::counter`] re-samples a value from live state;
    /// `bump` is for event-style counters a long-lived registry grows in
    /// place — snapshot bytes written, VM forks, migrations — where the
    /// registry itself is the only record of the total.
    pub fn bump(&mut self, name: &str, delta: u64) -> &mut Metrics {
        match self.counters.iter_mut().find(|(n, _)| n == name) {
            Some(slot) => slot.1 += delta,
            None => self.counters.push((name.to_string(), delta)),
        }
        self
    }

    /// Adds one sample of a labeled counter family: rendered to
    /// Prometheus as `family{key="value"} count` with a single
    /// `# HELP`/`# TYPE` pair per family, and to JSON under the key
    /// `family{key=value}`. Re-adding the same (family, key, value)
    /// triple accumulates, so long-lived registries can grow these in
    /// place the way [`Metrics::bump`] grows plain counters.
    pub fn labeled_counter(
        &mut self,
        family: &str,
        key: &str,
        value: &str,
        count: u64,
    ) -> &mut Metrics {
        match self
            .labeled
            .iter_mut()
            .find(|(f, k, v, _)| f == family && k == key && v == value)
        {
            Some(slot) => slot.3 += count,
            None => self.labeled.push((
                family.to_string(),
                key.to_string(),
                value.to_string(),
                count,
            )),
        }
        self
    }

    /// Sets one sample of a labeled gauge family: a per-label *level*
    /// (frames in use, children live), rendered like
    /// [`Metrics::labeled_counter`] but typed `gauge`. Re-setting the
    /// same (family, key, value) triple replaces the sample; like plain
    /// gauges, labeled gauges are not summed by [`Metrics::merge`].
    pub fn labeled_gauge(
        &mut self,
        family: &str,
        key: &str,
        value: &str,
        level: f64,
    ) -> &mut Metrics {
        match self
            .labeled_gauges
            .iter_mut()
            .find(|(f, k, v, _)| f == family && k == key && v == value)
        {
            Some(slot) => slot.3 = level,
            None => self.labeled_gauges.push((
                family.to_string(),
                key.to_string(),
                value.to_string(),
                level,
            )),
        }
        self
    }

    /// One labeled gauge sample by family and label, if present.
    pub fn get_labeled_gauge(&self, family: &str, key: &str, value: &str) -> Option<f64> {
        self.labeled_gauges
            .iter()
            .find(|(f, k, v, _)| f == family && k == key && v == value)
            .map(|(_, _, _, x)| *x)
    }

    /// One labeled counter sample by family and label, if present.
    pub fn get_labeled_counter(&self, family: &str, key: &str, value: &str) -> Option<u64> {
        self.labeled
            .iter()
            .find(|(f, k, v, _)| f == family && k == key && v == value)
            .map(|(_, _, _, c)| *c)
    }

    /// Counter value by name, if present.
    pub fn get_counter(&self, name: &str) -> Option<u64> {
        self.counters
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| *v)
    }

    /// Folds another snapshot into this one: counters are summed by name
    /// (unknown names are appended in `other`'s order), histograms are
    /// merged by name. Gauges, labeled or not, are **not** merged — a
    /// gauge is a point-in-time reading (a rate, a fraction) whose sum
    /// across registries means nothing; callers aggregating registries must
    /// recompute their gauges from the merged counters (as
    /// `Fleet::fleet_metrics` does for the TLB hit rate).
    pub fn merge(&mut self, other: &Metrics) -> &mut Metrics {
        for (name, v) in &other.counters {
            match self.counters.iter_mut().find(|(n, _)| n == name) {
                Some((_, mine)) => *mine += v,
                None => self.counters.push((name.clone(), *v)),
            }
        }
        for (name, h) in &other.histograms {
            match self.histograms.iter_mut().find(|(n, _)| n == name) {
                Some((_, mine)) => mine.merge(h),
                None => self.histograms.push((name.clone(), h.clone())),
            }
        }
        for (family, key, value, count) in &other.labeled {
            self.labeled_counter(family, key, value, *count);
        }
        self
    }

    /// Gauge value by name, if present. The outer `Option` is presence;
    /// the inner is the gauge's own null encoding.
    pub fn get_gauge(&self, name: &str) -> Option<Option<f64>> {
        self.gauges.iter().find(|(n, _)| n == name).map(|(_, v)| *v)
    }

    /// Histogram snapshot by name, if present.
    pub fn get_histogram(&self, name: &str) -> Option<&Histogram> {
        self.histograms
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, h)| h)
    }

    /// Renders the snapshot as a JSON object with `counters`, `gauges`,
    /// and `histograms` sections. Histograms carry summary moments,
    /// bucket-resolved p50/p90/p99, and the raw non-empty buckets.
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(1024);
        out.push_str("{\n  \"counters\": {");
        let mut first = true;
        for (name, v) in &self.counters {
            if !first {
                out.push(',');
            }
            first = false;
            out.push_str(&format!("\n    \"{name}\": {v}"));
        }
        for (family, key, value, count) in &self.labeled {
            if !first {
                out.push(',');
            }
            first = false;
            out.push_str(&format!("\n    \"{family}{{{key}={value}}}\": {count}"));
        }
        out.push_str("\n  },\n  \"gauges\": {");
        for (i, (name, v)) in self.gauges.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            match v {
                Some(x) => out.push_str(&format!("\n    \"{name}\": {x:.6}")),
                None => out.push_str(&format!("\n    \"{name}\": null")),
            }
        }
        for (i, (family, key, value, x)) in self.labeled_gauges.iter().enumerate() {
            if i > 0 || !self.gauges.is_empty() {
                out.push(',');
            }
            out.push_str(&format!("\n    \"{family}{{{key}={value}}}\": {x:.6}"));
        }
        out.push_str("\n  },\n  \"histograms\": {");
        for (i, (name, h)) in self.histograms.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let buckets: Vec<String> = h
                .buckets()
                .map(|(edge, c)| format!("[{edge}, {c}]"))
                .collect();
            out.push_str(&format!(
                "\n    \"{name}\": {{\"count\": {}, \"sum\": {}, \"min\": {}, \"max\": {}, \
                 \"mean\": {:.2}, \"p50\": {}, \"p90\": {}, \"p99\": {}, \"buckets\": [{}]}}",
                h.count(),
                h.sum(),
                h.min(),
                h.max(),
                h.mean(),
                h.quantile(0.5),
                h.quantile(0.9),
                h.quantile(0.99),
                buckets.join(", ")
            ));
        }
        out.push_str("\n  }\n}\n");
        out
    }

    /// Renders the snapshot as Prometheus text exposition (version 0.0.4):
    /// `vax_`-prefixed metric names, a `# HELP` / `# TYPE` annotation pair
    /// for every family, cumulative `le` buckets with a final `+Inf`, and
    /// `_sum`/`_count` series per histogram.
    pub fn to_prometheus(&self) -> String {
        let mut out = String::with_capacity(1024);
        for (name, v) in &self.counters {
            let m = prom_name(name);
            let help = prom_help(name);
            out.push_str(&format!("# HELP {m} {help}\n# TYPE {m} counter\n{m} {v}\n"));
        }
        prom_labeled(&mut out, "counter", &self.labeled);
        prom_labeled(&mut out, "gauge", &self.labeled_gauges);
        for (name, v) in &self.gauges {
            if let Some(x) = v {
                let m = prom_name(name);
                let help = prom_help(name);
                out.push_str(&format!("# HELP {m} {help}\n# TYPE {m} gauge\n{m} {x}\n"));
            }
        }
        for (name, h) in &self.histograms {
            let m = prom_name(name);
            let help = prom_help(name);
            out.push_str(&format!("# HELP {m} {help}\n# TYPE {m} histogram\n"));
            let mut acc = 0u64;
            for (edge, cum) in h.cumulative() {
                acc = cum;
                out.push_str(&format!("{m}_bucket{{le=\"{edge}\"}} {cum}\n"));
            }
            debug_assert_eq!(acc, h.count());
            out.push_str(&format!("{m}_bucket{{le=\"+Inf\"}} {}\n", h.count()));
            out.push_str(&format!("{m}_sum {}\n", h.sum()));
            out.push_str(&format!("{m}_count {}\n", h.count()));
        }
        out
    }
}

/// Maps an arbitrary metric name onto the Prometheus charset with a
/// `vax_` namespace prefix.
fn prom_name(name: &str) -> String {
    let mut m = String::with_capacity(name.len() + 4);
    m.push_str("vax_");
    for ch in name.chars() {
        if ch.is_ascii_alphanumeric() || ch == '_' || ch == ':' {
            m.push(ch);
        } else {
            m.push('_');
        }
    }
    m
}

/// Renders labeled samples of one metric type: one `# HELP`/`# TYPE`
/// pair per family, then `family{key="value"} sample` per label value.
fn prom_labeled<V: std::fmt::Display>(
    out: &mut String,
    kind: &str,
    samples: &[(String, String, String, V)],
) {
    let mut annotated: Vec<&str> = Vec::new();
    for (family, key, value, sample) in samples {
        let m = prom_name(family);
        if !annotated.contains(&family.as_str()) {
            annotated.push(family);
            let help = prom_help(family);
            out.push_str(&format!("# HELP {m} {help}\n# TYPE {m} {kind}\n"));
        }
        let v = prom_label_value(value);
        out.push_str(&format!("{m}{{{key}=\"{v}\"}} {sample}\n"));
    }
}

/// Escapes a label value per the Prometheus text format: backslash,
/// double quote, and newline must be backslash-escaped.
fn prom_label_value(value: &str) -> String {
    let mut v = String::with_capacity(value.len());
    for ch in value.chars() {
        match ch {
            '\\' => v.push_str("\\\\"),
            '"' => v.push_str("\\\""),
            '\n' => v.push_str("\\n"),
            _ => v.push(ch),
        }
    }
    v
}

/// One-line `# HELP` text for a metric family. Known families get a
/// specific description; anything else falls back to a generic line so
/// every exported family is annotated (the exposition test rejects
/// unannotated families).
fn prom_help(name: &str) -> &'static str {
    match name {
        "instructions" => "Guest instructions retired (tier-invariant)",
        "cycles" | "simulated_cycles" => "Simulated machine cycles",
        "vmm_cycles" => "Cycles charged to VMM software emulation paths",
        "vm_exits" => "Guest-to-VMM exits of all causes",
        "world_switches" => "VM world switches performed by the monitor",
        "trace_records" => "Exit-trace records captured in the ring",
        "trace_records_dropped" => "Exit-trace records dropped at ring capacity",
        "fleet_monitors" => "Monitors aggregated into this registry",
        "tlb_hit_rate" => "TLB hits over lookups, point-in-time",
        "exec_tier" => "1 for the execution tier in effect, else 0 (fleet: members per tier)",
        "decode_cache_hit_rate" => "Decode-cache hits over lookups, point-in-time",
        "superblock_length" => "Superblock lengths in uops at translate time",
        "trans_blocks_translated" => "Superblocks lowered into the translation cache",
        "trans_blocks_executed" => "Superblock dispatches through the translated tier",
        "trans_uops_executed" => "Uops retired by the translated tier",
        "trans_side_exit_interrupt" => "Superblocks cut short by a deliverable interrupt",
        "trans_side_exit_bail" => "Fast-path bails to the interpreter of all causes",
        "trans_side_exit_smc" => "Superblocks stopped by a retired store dirtying code",
        "trans_side_exit_tlb_miss" => "Fast-path bails on a software-TLB miss",
        "trans_side_exit_prot" => "Fast-path bails on a page-protection mismatch",
        "trans_side_exit_modify" => "Fast-path bails on a write to a PTE with M clear",
        "trans_side_exit_page_cross" => "Fast-path bails on a mapped page-crossing operand",
        "trans_side_exit_io" => "Fast-path bails on an IO-space or unbacked reference",
        "trans_chain_hits" => "Direct superblock-to-superblock chain follows",
        "trans_chain_links_severed" => "Stale successor links severed after invalidation",
        "trans_invalidations" => "Translation-cache invalidation events",
        "profile_samples" => "Profiler interval samples taken",
        "profile_overflow_cycles" => "Sampled cycles past the PC-bucket cap",
        "profile_events_dropped" => "Superblock lifecycle events dropped at cap",
        "profile_dirty_rate" => "Pages newly dirtied per profiler sampling interval",
        "profile_page_cycles" => "Sampled cycles attributed per guest page",
        "dirty_pages" => "Distinct pages written since tracking enabled or last drain",
        "touched_pages" => "Distinct pages written since tracking enabled",
        "dirty_page_events" => "Monotonic count of page-dirtying events",
        "modify_faults" => "Guest modify faults taken via the shadow tables",
        "dirty_upgrades" => "Shadow PTEs upgraded to writable after a modify fault",
        "hot_superblocks" => "Translated superblocks with per-block profiles",
        "vaxd_requests_total" => "Serving requests received",
        "vaxd_requests_ok" => "Serving requests answered OK",
        "vaxd_requests_ok_by_tenant" => "Serving requests answered OK, by tenant",
        "vaxd_requests_rejected" => "Serving requests rejected by admission control",
        "vaxd_requests_rejected_by_reason" => {
            "Serving requests rejected by admission control, by reason"
        }
        "vaxd_requests_shed" => "Connections shed at the bounded accept queue",
        "vaxd_requests_refused_draining" => "Requests refused because the daemon was draining",
        "vaxd_forks_total" => "Copy-on-write children forked from warm bases",
        "vaxd_children_reaped" => "Forked children reaped after their request",
        "vaxd_forked_children_live" => "Forked children currently serving requests",
        "vaxd_children_leaked" => "Forked children still alive after shutdown drain",
        "vaxd_request_latency_us" => "Wall-clock request service latency in microseconds",
        "vaxd_tenant_frames_in_use" => "Real frames admitted to in-flight requests, by tenant",
        "vaxd_tenant_children_live" => "Forked children currently live, by tenant",
        "superblock_cycles_retired" => "Cycles retired per profiled superblock",
        "superblock_executions" => "Executions per profiled superblock",
        _ => {
            if name.starts_with("exit_cost_") {
                "Exit-to-resume cost in simulated cycles for this exit cause"
            } else if name.starts_with("profile_instructions_") {
                "Instructions retired through this execution path while profiling"
            } else if name.starts_with("profile_cycles_") {
                "Sampled cycles attributed to this execution path"
            } else {
                "Simulated-machine metric (see DESIGN.md for semantics)"
            }
        }
    }
}

/// Renders traced exits as Chrome trace-event JSON (the `about:tracing` /
/// Perfetto format): one complete (`ph: "X"`) event per record, with
/// `ts` = exit-start simulated cycles and `dur` = exit-to-resume cost.
/// The virtual ring at exit time becomes the `tid`, so the timeline
/// groups exits by the mode the guest believed it was in.
pub fn chrome_trace<'a, I>(records: I) -> String
where
    I: IntoIterator<Item = &'a TraceRecord>,
{
    chrome_trace_with_events(records, &[])
}

/// [`chrome_trace`] plus superblock lifecycle events from the profiler:
/// each [`ProfEvent`] becomes an instant (`ph: "i"`) event on its own
/// `tid` (99) so translate / invalidate / SMC-drain activity lines up on
/// the same simulated-cycle timeline as the VM exits.
pub fn chrome_trace_with_events<'a, I>(records: I, events: &[ProfEvent]) -> String
where
    I: IntoIterator<Item = &'a TraceRecord>,
{
    let mut out = String::with_capacity(1024);
    out.push_str("{\"traceEvents\": [");
    let mut first = true;
    for rec in records {
        if !first {
            out.push(',');
        }
        first = false;
        out.push_str(&format!(
            "\n  {{\"name\": \"{}\", \"cat\": \"vmexit\", \"ph\": \"X\", \"ts\": {}, \
             \"dur\": {}, \"pid\": 0, \"tid\": {}, \"args\": {{\"pc\": \"{:#010x}\"}}}}",
            rec.cause.name(),
            rec.start_cycles,
            rec.cost_cycles,
            rec.ring,
            rec.guest_pc
        ));
    }
    for ev in events {
        if !first {
            out.push(',');
        }
        first = false;
        out.push_str(&format!(
            "\n  {{\"name\": \"{}\", \"cat\": \"superblock\", \"ph\": \"i\", \"s\": \"t\", \
             \"ts\": {}, \"pid\": 0, \"tid\": 99, \
             \"args\": {{\"pa\": \"{:#010x}\", \"arg\": {}}}}}",
            ev.kind.name(),
            ev.cycles,
            ev.pa,
            ev.arg
        ));
    }
    out.push_str("\n], \"displayTimeUnit\": \"ns\"}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cause::ExitCause;

    fn sample() -> Metrics {
        let mut h = Histogram::new();
        for v in [90u64, 90, 6] {
            h.record(v);
        }
        let mut m = Metrics::new();
        m.counter("instructions", 1234)
            .gauge("tlb_hit_rate", None)
            .gauge("mips", Some(2.5))
            .histogram("exit_cost_emul_mtpr_ipl", &h);
        m
    }

    #[test]
    fn json_has_all_sections() {
        let j = sample().to_json();
        assert!(j.contains("\"instructions\": 1234"));
        assert!(j.contains("\"tlb_hit_rate\": null"));
        assert!(j.contains("\"mips\": 2.500000"));
        assert!(j.contains("\"exit_cost_emul_mtpr_ipl\""));
        assert!(j.contains("\"count\": 3"));
        assert!(j.contains("\"sum\": 186"));
        // Braces balance — cheap structural sanity without a JSON parser.
        assert_eq!(
            j.matches('{').count(),
            j.matches('}').count(),
            "unbalanced JSON: {j}"
        );
    }

    #[test]
    fn prometheus_shape() {
        let p = sample().to_prometheus();
        assert!(p.contains("# TYPE vax_instructions counter"));
        assert!(p.contains("vax_instructions 1234"));
        // Null gauge omitted, present gauge kept.
        assert!(!p.contains("tlb_hit_rate"));
        assert!(p.contains("vax_mips 2.5"));
        // Histogram series: cumulative buckets end at +Inf = count.
        assert!(p.contains("vax_exit_cost_emul_mtpr_ipl_bucket{le=\"+Inf\"} 3"));
        assert!(p.contains("vax_exit_cost_emul_mtpr_ipl_sum 186"));
        assert!(p.contains("vax_exit_cost_emul_mtpr_ipl_count 3"));
    }

    #[test]
    fn get_counter_roundtrip() {
        let m = sample();
        assert_eq!(m.get_counter("instructions"), Some(1234));
        assert_eq!(m.get_counter("missing"), None);
    }

    #[test]
    fn merge_sums_counters_and_folds_histograms() {
        let mut a = sample();
        let mut b = sample();
        b.counter("only_in_b", 7);
        a.merge(&b);
        assert_eq!(a.get_counter("instructions"), Some(2468));
        assert_eq!(a.get_counter("only_in_b"), Some(7));
        let h = a.get_histogram("exit_cost_emul_mtpr_ipl").unwrap();
        assert_eq!(h.count(), 6, "3 samples from each side");
        assert_eq!(h.sum(), 372);
        // Gauges are point-in-time readings: merge leaves ours alone and
        // never sums the other side's.
        let j = a.to_json();
        assert_eq!(j.matches("\"mips\"").count(), 1);
    }

    #[test]
    fn merge_with_empty_is_identity_either_way() {
        let mut empty = Metrics::new();
        empty.merge(&sample());
        assert_eq!(empty.get_counter("instructions"), Some(1234));
        let mut m = sample();
        m.merge(&Metrics::new());
        assert_eq!(m.get_counter("instructions"), Some(1234));
        assert_eq!(
            m.get_histogram("exit_cost_emul_mtpr_ipl").unwrap().count(),
            3
        );
    }

    /// Satellite: every exported family must carry `# HELP` and `# TYPE`
    /// annotations. Parses the exposition the way a scraper would and
    /// rejects any sample whose family was not annotated first.
    #[test]
    fn prometheus_every_family_is_annotated() {
        let mut sb = Histogram::new();
        sb.record_n(7, 3);
        let mut m = sample();
        m.counter("profile_samples", 42)
            .counter("profile_cycles_trans", 9000)
            .counter("made_up_metric_nobody_registered", 1)
            .histogram("superblock_cycles_retired", &sb);
        let text = m.to_prometheus();
        let mut helped: std::collections::HashSet<&str> = std::collections::HashSet::new();
        let mut typed: std::collections::HashSet<&str> = std::collections::HashSet::new();
        for line in text.lines() {
            if let Some(rest) = line.strip_prefix("# HELP ") {
                let (fam, help) = rest.split_once(' ').expect("HELP has text");
                assert!(!help.trim().is_empty(), "empty HELP for {fam}");
                helped.insert(fam);
            } else if let Some(rest) = line.strip_prefix("# TYPE ") {
                typed.insert(rest.split_whitespace().next().expect("TYPE has family"));
            } else if !line.is_empty() {
                let sample_name = line.split([' ', '{']).next().expect("sample name");
                let family = sample_name
                    .strip_suffix("_bucket")
                    .or_else(|| sample_name.strip_suffix("_sum"))
                    .or_else(|| sample_name.strip_suffix("_count"))
                    .unwrap_or(sample_name);
                assert!(
                    helped.contains(family) || helped.contains(sample_name),
                    "unannotated family for sample {sample_name}: missing # HELP"
                );
                assert!(
                    typed.contains(family) || typed.contains(sample_name),
                    "unannotated family for sample {sample_name}: missing # TYPE"
                );
            }
        }
        assert!(helped.contains("vax_profile_samples"));
        assert!(helped.contains("vax_superblock_cycles_retired"));
        assert!(helped.contains("vax_made_up_metric_nobody_registered"));
    }

    /// Satellite: `Metrics::merge` over `record_n`-built histograms and
    /// the profile families — disjoint registries append, overlapping
    /// registries fold, and gauges are left for the caller to recompute.
    #[test]
    fn merge_record_n_profile_families() {
        // Overlapping: same superblock family on both sides.
        let mut ha = Histogram::new();
        ha.record_n(100, 4); // 4 blocks retiring 100 cycles each
        let mut hb = Histogram::new();
        hb.record_n(100, 2);
        hb.record_n(7, 5);
        let mut a = Metrics::new();
        a.counter("profile_samples", 10)
            .gauge("profile_coverage", Some(0.5))
            .histogram("superblock_cycles_retired", &ha);
        let mut b = Metrics::new();
        b.counter("profile_samples", 32)
            .counter("profile_cycles_trans", 640)
            .gauge("profile_coverage", Some(0.9))
            .histogram("superblock_cycles_retired", &hb)
            .histogram("profile_dirty_rate", &hb);
        a.merge(&b);
        assert_eq!(a.get_counter("profile_samples"), Some(42));
        // Disjoint counter appended.
        assert_eq!(a.get_counter("profile_cycles_trans"), Some(640));
        let h = a
            .get_histogram("superblock_cycles_retired")
            .expect("merged");
        assert_eq!(h.count(), 11, "4 + 2 + 5 record_n'd samples");
        assert_eq!(h.sum(), 4 * 100 + 2 * 100 + 5 * 7);
        assert_eq!(h.max(), 100);
        assert_eq!(h.min(), 7);
        // Disjoint histogram appended whole.
        assert_eq!(
            a.get_histogram("profile_dirty_rate").map(|h| h.count()),
            Some(7)
        );
        // Gauges: ours kept as-is, theirs never summed in — the caller
        // recomputes (the Fleet tlb_hit_rate pattern).
        let j = a.to_json();
        assert_eq!(j.matches("\"profile_coverage\"").count(), 1);
        assert!(j.contains("\"profile_coverage\": 0.500000"));
    }

    #[test]
    fn labeled_counters_expose_accumulate_and_merge() {
        let mut m = Metrics::new();
        m.labeled_counter("vaxd_requests_total", "tenant", "alice", 3)
            .labeled_counter("vaxd_requests_total", "tenant", "bob", 1)
            .labeled_counter("vaxd_requests_total", "tenant", "alice", 2);
        assert_eq!(
            m.get_labeled_counter("vaxd_requests_total", "tenant", "alice"),
            Some(5)
        );
        assert_eq!(
            m.get_labeled_counter("vaxd_requests_total", "tenant", "carol"),
            None
        );
        let p = m.to_prometheus();
        // One HELP/TYPE pair for the family, one sample per label value.
        assert_eq!(
            p.matches("# TYPE vax_vaxd_requests_total counter").count(),
            1
        );
        assert!(p.contains("vax_vaxd_requests_total{tenant=\"alice\"} 5"));
        assert!(p.contains("vax_vaxd_requests_total{tenant=\"bob\"} 1"));
        let j = m.to_json();
        assert!(j.contains("\"vaxd_requests_total{tenant=alice}\": 5"));
        assert_eq!(j.matches('{').count(), j.matches('}').count());

        // Merge folds by (family, key, value) and appends unknown labels.
        let mut other = Metrics::new();
        other
            .labeled_counter("vaxd_requests_total", "tenant", "alice", 10)
            .labeled_counter(
                "vaxd_requests_rejected_by_reason",
                "reason",
                "tenant_frames",
                4,
            );
        m.merge(&other);
        assert_eq!(
            m.get_labeled_counter("vaxd_requests_total", "tenant", "alice"),
            Some(15)
        );
        assert_eq!(
            m.get_labeled_counter(
                "vaxd_requests_rejected_by_reason",
                "reason",
                "tenant_frames"
            ),
            Some(4)
        );
    }

    #[test]
    fn labeled_gauges_expose_as_gauges_replace_and_do_not_merge() {
        let mut m = Metrics::new();
        m.gauge("tlb_hit_rate", Some(0.5))
            .labeled_gauge("vaxd_tenant_frames_in_use", "tenant", "alice", 700.0)
            .labeled_gauge("vaxd_tenant_frames_in_use", "tenant", "bob", 3.0)
            .labeled_gauge("vaxd_tenant_frames_in_use", "tenant", "alice", 350.0);
        assert_eq!(
            m.get_labeled_gauge("vaxd_tenant_frames_in_use", "tenant", "alice"),
            Some(350.0),
            "a level is re-set, not accumulated"
        );
        assert_eq!(
            m.get_labeled_counter("vaxd_tenant_frames_in_use", "tenant", "alice"),
            None
        );
        let p = m.to_prometheus();
        assert_eq!(
            p.matches("# TYPE vax_vaxd_tenant_frames_in_use gauge")
                .count(),
            1
        );
        assert!(!p.contains("vax_vaxd_tenant_frames_in_use counter"));
        assert!(p.contains("vax_vaxd_tenant_frames_in_use{tenant=\"alice\"} 350"));
        assert!(p.contains("vax_vaxd_tenant_frames_in_use{tenant=\"bob\"} 3"));
        let j = m.to_json();
        assert!(j.contains("\"tlb_hit_rate\": 0.500000,"));
        assert!(j.contains("\"vaxd_tenant_frames_in_use{tenant=alice}\": 350.000000"));
        assert_eq!(j.matches('{').count(), j.matches('}').count());

        let mut other = Metrics::new();
        other.labeled_gauge("vaxd_tenant_frames_in_use", "tenant", "alice", 1.0);
        m.merge(&other);
        assert_eq!(
            m.get_labeled_gauge("vaxd_tenant_frames_in_use", "tenant", "alice"),
            Some(350.0),
            "merge leaves gauges to the caller"
        );
    }

    #[test]
    fn labeled_counter_values_are_escaped() {
        let mut m = Metrics::new();
        m.labeled_counter("vaxd_requests_total", "tenant", "a\"b\\c\nd", 1);
        let p = m.to_prometheus();
        assert!(p.contains("{tenant=\"a\\\"b\\\\c\\nd\"} 1"));
    }

    #[test]
    fn prometheus_labeled_families_are_annotated() {
        // The annotation-parser test below must also accept labeled
        // samples: family extraction splits on '{'.
        let mut m = Metrics::new();
        m.labeled_counter("vaxd_requests_total", "tenant", "t0", 1);
        let text = m.to_prometheus();
        assert!(text.contains("# HELP vax_vaxd_requests_total Serving requests received"));
    }

    #[test]
    fn chrome_trace_includes_superblock_lifecycle_events() {
        use crate::prof::{ProfEvent, ProfEventKind};
        let recs = [TraceRecord {
            cause: ExitCause::EmulMtprIpl,
            ring: 0,
            guest_pc: 0x1000,
            start_cycles: 100,
            cost_cycles: 90,
        }];
        let events = [
            ProfEvent {
                kind: ProfEventKind::Translate,
                pa: 0x2000,
                arg: 12,
                cycles: 50,
            },
            ProfEvent {
                kind: ProfEventKind::SmcDrain,
                pa: 0x2000,
                arg: 16,
                cycles: 400,
            },
        ];
        let t = chrome_trace_with_events(recs.iter(), &events);
        assert!(t.contains("\"name\": \"sb_translate\""));
        assert!(t.contains("\"name\": \"sb_smc_drain\""));
        assert!(t.contains("\"cat\": \"superblock\""));
        assert!(t.contains("\"ph\": \"i\""));
        assert!(t.contains("\"pa\": \"0x00002000\""));
        assert_eq!(t.matches('{').count(), t.matches('}').count());
        // Events-only export (no exit records) still renders valid JSON.
        let none: [TraceRecord; 0] = [];
        let only = chrome_trace_with_events(none.iter(), &events);
        assert!(only.starts_with("{\"traceEvents\": [\n  {\"name\": \"sb_translate\""));
    }

    #[test]
    fn chrome_trace_events() {
        let recs = [
            TraceRecord {
                cause: ExitCause::EmulMtprIpl,
                ring: 0,
                guest_pc: 0x8000_1000,
                start_cycles: 100,
                cost_cycles: 90,
            },
            TraceRecord {
                cause: ExitCause::ShadowFill,
                ring: 3,
                guest_pc: 0x200,
                start_cycles: 400,
                cost_cycles: 320,
            },
        ];
        let t = chrome_trace(recs.iter());
        assert!(t.contains("\"name\": \"emul_mtpr_ipl\""));
        assert!(t.contains("\"ts\": 100"));
        assert!(t.contains("\"dur\": 90"));
        assert!(t.contains("\"tid\": 3"));
        assert!(t.contains("\"pc\": \"0x80001000\""));
        assert_eq!(t.matches('{').count(), t.matches('}').count());
    }
}
