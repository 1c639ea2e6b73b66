#include "ops/metrics.hpp"

#include <cinttypes>
#include <cstdarg>
#include <cstdio>
#include <vector>

namespace ftcs::ops {

namespace {

void appendf(std::string& out, const char* fmt, ...) {
  char buf[256];
  va_list ap;
  va_start(ap, fmt);
  const int n = std::vsnprintf(buf, sizeof buf, fmt, ap);
  va_end(ap);
  if (n > 0) out.append(buf, static_cast<std::size_t>(n));
}

/// The flat (unlabeled) counters both formats iterate. Keys are the
/// Prometheus metric names minus the ftcs_ prefix; JSON reuses them.
struct NamedCounter {
  const char* name;
  std::uint64_t total;
  std::uint64_t delta;
};

std::vector<NamedCounter> flat_counters(const MetricsRegistry::Sample& s) {
  const svc::ExchangeStats& t = s.total;
  const svc::ExchangeStats& d = s.delta;
  return {
      {"calls_submitted_total", t.submitted, d.submitted},
      {"calls_admitted_total", t.admitted, d.admitted},
      {"calls_completed_total", t.completed, d.completed},
      {"calls_deferred_total", t.deferred, d.deferred},
      {"calls_refused_total", t.refused, d.refused},
      {"epochs_total", t.epochs, d.epochs},
      {"hangups_total", t.hangups, d.hangups},
      {"handle_errors_total", t.handle_errors, d.handle_errors},
      {"faults_injected_total", t.faults_injected, d.faults_injected},
      {"faults_stuck_total", t.faults_stuck, d.faults_stuck},
      {"faults_repaired_total", t.faults_repaired, d.faults_repaired},
      {"calls_killed_by_fault_total", t.calls_killed_by_fault,
       d.calls_killed_by_fault},
      {"reroute_succeeded_total", t.reroute_succeeded, d.reroute_succeeded},
      {"reroute_failed_total", t.reroute_failed, d.reroute_failed},
      {"shorts_raised_total", t.shorts_raised, d.shorts_raised},
      {"shorts_cleared_total", t.shorts_cleared, d.shorts_cleared},
      {"growths_total", t.growths, d.growths},
      {"growth_calls_remapped_total", t.calls_remapped_by_growth,
       d.calls_remapped_by_growth},
      {"growth_calls_killed_total", t.calls_killed_by_growth,
       d.calls_killed_by_growth},
      {"router_connect_calls_total", t.router.connect_calls,
       d.router.connect_calls},
      {"router_accepted_total", t.router.accepted, d.router.accepted},
      {"router_vertices_visited_total", t.router.vertices_visited,
       d.router.vertices_visited},
      {"router_claim_conflicts_total", t.router.claim_conflicts,
       d.router.claim_conflicts},
      {"router_overlay_conflicts_total", t.router.overlay_conflicts,
       d.router.overlay_conflicts},
  };
}

/// The reject book, spelled with the canonical RejectReason strings.
struct NamedReject {
  const char* reason;
  std::uint64_t total;
  std::uint64_t delta;
};

std::vector<NamedReject> reject_book(const MetricsRegistry::Sample& s) {
  const core::RouterStats& t = s.total.router;
  const core::RouterStats& d = s.delta.router;
  using svc::RejectReason;
  return {
      {to_string(RejectReason::kTerminalBusy), t.rejected_terminal,
       d.rejected_terminal},
      {to_string(RejectReason::kNoPath), t.rejected_no_path,
       d.rejected_no_path},
      {to_string(RejectReason::kContention), t.rejected_contention,
       d.rejected_contention},
      {to_string(RejectReason::kRefused), s.total.refused, s.delta.refused},
  };
}

/// Federation-wide flat counters (front-end books + merged trunk stats);
/// emitted only on federated samples.
std::vector<NamedCounter> fed_counters(const MetricsRegistry::Sample& s) {
  const svc::FederationStats& t = s.fed_total;
  const svc::FederationStats& d = s.fed_delta;
  return {
      {"intra_calls_total", t.intra_calls, d.intra_calls},
      {"inter_calls_total", t.inter_calls, d.inter_calls},
      {"inter_connected_total", t.inter_connected, d.inter_connected},
      {"half_calls_routed_total", t.half_calls_routed, d.half_calls_routed},
      {"inter_hangups_total", t.inter_hangups, d.inter_hangups},
      {"trunk_claims_total", t.trunks.claims, d.trunks.claims},
      {"trunk_releases_total", t.trunks.releases, d.trunks.releases},
      {"trunk_rejects_total", t.trunks.rejects, d.trunks.rejects},
      {"trunk_faults_total", t.trunks.faults, d.trunks.faults},
      {"trunk_repairs_total", t.trunks.repairs, d.trunks.repairs},
      {"trunk_setup_rejects_total", t.trunk_rejects, d.trunk_rejects},
      {"ingress_aborts_total", t.ingress_aborts, d.ingress_aborts},
      {"egress_aborts_total", t.egress_aborts, d.egress_aborts},
      {"calls_killed_by_trunk_fault_total", t.calls_killed_by_trunk_fault,
       d.calls_killed_by_trunk_fault},
      {"mates_adopted_total", t.mates_adopted, d.mates_adopted},
      {"mates_torn_down_total", t.mates_torn_down, d.mates_torn_down},
  };
}

}  // namespace

MetricsRegistry::Sample MetricsRegistry::sample(const svc::Federation& fed) {
  Sample s;
  s.federated = true;
  s.fed_total = fed.stats();
  s.fed_delta = s.fed_total;
  s.fed_delta -= fed_last_;
  fed_last_ = s.fed_total;
  // Merged member stats feed the single-exchange families unchanged.
  s.total = s.fed_total.members;
  s.delta = s.total;
  s.delta -= last_;
  last_ = s.total;
  s.active_calls = fed.active_calls();
  s.pending = fed.pending();
  for (unsigned m = 0; m < fed.shards(); ++m) {
    s.failed_switches += fed.member(m).failed_switch_count();
    s.stuck_switches += fed.member(m).stuck_switch_count();
    s.shorted = s.shorted || fed.member(m).shorted();
  }
  s.shards = fed.shards();
  s.half_calls = fed.active_inter_calls();
  s.trunks = fed.trunk_gauges();
  s.scrape_seq = ++seq_;
  return s;
}

MetricsRegistry::Sample MetricsRegistry::sample(const svc::Exchange& ex) {
  Sample s;
  s.total = ex.stats();
  s.delta = s.total;
  s.delta -= last_;
  last_ = s.total;
  s.active_calls = ex.active_calls();
  s.pending = ex.pending();
  s.failed_switches = ex.failed_switch_count();
  s.stuck_switches = ex.stuck_switch_count();
  s.shorted = ex.shorted();
  s.scrape_seq = ++seq_;
  return s;
}

std::string MetricsRegistry::prometheus(const Sample& s) const {
  std::string out;
  out.reserve(16 * 1024);
  const char* inst = instance_.c_str();

  for (const NamedCounter& c : flat_counters(s)) {
    appendf(out, "# TYPE ftcs_%s counter\n", c.name);
    appendf(out, "ftcs_%s{exchange=\"%s\"} %" PRIu64 "\n", c.name, inst,
            c.total);
  }

  appendf(out, "# TYPE ftcs_rejects_total counter\n");
  for (const NamedReject& r : reject_book(s)) {
    appendf(out, "ftcs_rejects_total{exchange=\"%s\",reason=\"%s\"} %" PRIu64
                 "\n",
            inst, r.reason, r.total);
  }

  // Per-interval deltas, pre-computed for scrapers that do not rate().
  appendf(out, "# TYPE ftcs_scrape_delta gauge\n");
  for (const NamedCounter& c : flat_counters(s)) {
    appendf(out, "ftcs_scrape_delta{exchange=\"%s\",counter=\"%s\"} %" PRIu64
                 "\n",
            inst, c.name, c.delta);
  }

  appendf(out, "# TYPE ftcs_active_calls gauge\n");
  appendf(out, "ftcs_active_calls{exchange=\"%s\"} %zu\n", inst,
          s.active_calls);
  appendf(out, "# TYPE ftcs_pending_requests gauge\n");
  appendf(out, "ftcs_pending_requests{exchange=\"%s\"} %zu\n", inst, s.pending);
  appendf(out, "# TYPE ftcs_failed_switches gauge\n");
  appendf(out, "ftcs_failed_switches{exchange=\"%s\"} %zu\n", inst,
          s.failed_switches);
  appendf(out, "# TYPE ftcs_stuck_switches gauge\n");
  appendf(out, "ftcs_stuck_switches{exchange=\"%s\"} %zu\n", inst,
          s.stuck_switches);
  appendf(out, "# TYPE ftcs_shorted gauge\n");
  appendf(out, "ftcs_shorted{exchange=\"%s\"} %d\n", inst, s.shorted ? 1 : 0);
  appendf(out, "# TYPE ftcs_scrape_seq counter\n");
  appendf(out, "ftcs_scrape_seq{exchange=\"%s\"} %" PRIu64 "\n", inst,
          s.scrape_seq);

  // Per-class SLA books: served/rejected/violations + the setup-latency
  // histogram in native Prometheus shape (cumulative buckets, le ascending,
  // +Inf last, _sum/_count trailers).
  appendf(out, "# TYPE ftcs_class_served_total counter\n");
  for (std::size_t c = 0; c < kQosClasses; ++c)
    appendf(out, "ftcs_class_served_total{exchange=\"%s\",class=\"%zu\"} %"
                 PRIu64 "\n",
            inst, c, s.total.classes[c].served);
  appendf(out, "# TYPE ftcs_class_rejected_total counter\n");
  for (std::size_t c = 0; c < kQosClasses; ++c)
    appendf(out, "ftcs_class_rejected_total{exchange=\"%s\",class=\"%zu\"} %"
                 PRIu64 "\n",
            inst, c, s.total.classes[c].rejected);
  appendf(out, "# TYPE ftcs_class_sla_violations_total counter\n");
  for (std::size_t c = 0; c < kQosClasses; ++c)
    appendf(out,
            "ftcs_class_sla_violations_total{exchange=\"%s\",class=\"%zu\"} %"
            PRIu64 "\n",
            inst, c, s.total.classes[c].sla_violations);

  appendf(out, "# TYPE ftcs_setup_latency_seconds histogram\n");
  for (std::size_t c = 0; c < kQosClasses; ++c) {
    const LatencyHistogram& h = s.total.classes[c].setup;
    std::uint64_t cum = 0;
    for (std::size_t b = 0; b < LatencyHistogram::kBuckets; ++b) {
      cum += h.bucket(b);
      appendf(out,
              "ftcs_setup_latency_seconds_bucket{exchange=\"%s\",class=\"%zu\","
              "le=\"%.9g\"} %" PRIu64 "\n",
              inst, c, LatencyHistogram::bucket_upper_seconds(b), cum);
    }
    appendf(out,
            "ftcs_setup_latency_seconds_bucket{exchange=\"%s\",class=\"%zu\","
            "le=\"+Inf\"} %" PRIu64 "\n",
            inst, c, h.count());
    appendf(out,
            "ftcs_setup_latency_seconds_sum{exchange=\"%s\",class=\"%zu\"} "
            "%.9g\n",
            inst, c, h.sum_seconds());
    appendf(out,
            "ftcs_setup_latency_seconds_count{exchange=\"%s\",class=\"%zu\"} %"
            PRIu64 "\n",
            inst, c, h.count());
  }

  // Pre-extracted quantiles for dashboards without histogram_quantile().
  appendf(out, "# TYPE ftcs_setup_latency_p50_seconds gauge\n");
  for (std::size_t c = 0; c < kQosClasses; ++c)
    appendf(out,
            "ftcs_setup_latency_p50_seconds{exchange=\"%s\",class=\"%zu\"} "
            "%.9g\n",
            inst, c, s.total.classes[c].setup.quantile(0.50));
  appendf(out, "# TYPE ftcs_setup_latency_p99_seconds gauge\n");
  for (std::size_t c = 0; c < kQosClasses; ++c)
    appendf(out,
            "ftcs_setup_latency_p99_seconds{exchange=\"%s\",class=\"%zu\"} "
            "%.9g\n",
            inst, c, s.total.classes[c].setup.quantile(0.99));

  // Federation families: trunk books + half-call gauges, per group where
  // the group identity matters (occupancy/health) and flat where a
  // federation-wide tally is the useful shape.
  if (s.federated) {
    for (const NamedCounter& c : fed_counters(s)) {
      appendf(out, "# TYPE ftcs_%s counter\n", c.name);
      appendf(out, "ftcs_%s{exchange=\"%s\"} %" PRIu64 "\n", c.name, inst,
              c.total);
    }
    appendf(out, "# TYPE ftcs_shards gauge\n");
    appendf(out, "ftcs_shards{exchange=\"%s\"} %zu\n", inst, s.shards);
    appendf(out, "# TYPE ftcs_half_calls_active gauge\n");
    appendf(out, "ftcs_half_calls_active{exchange=\"%s\"} %zu\n", inst,
            s.half_calls);
    appendf(out, "# TYPE ftcs_trunk_group_capacity gauge\n");
    for (const svc::TrunkGauge& g : s.trunks)
      appendf(out,
              "ftcs_trunk_group_capacity{exchange=\"%s\",group=\"%u\","
              "from=\"%u\",to=\"%u\"} %u\n",
              inst, g.group, g.from, g.to, g.capacity);
    appendf(out, "# TYPE ftcs_trunk_group_usable gauge\n");
    for (const svc::TrunkGauge& g : s.trunks)
      appendf(out,
              "ftcs_trunk_group_usable{exchange=\"%s\",group=\"%u\","
              "from=\"%u\",to=\"%u\"} %u\n",
              inst, g.group, g.from, g.to, g.usable);
    appendf(out, "# TYPE ftcs_trunk_group_occupancy gauge\n");
    for (const svc::TrunkGauge& g : s.trunks)
      appendf(out,
              "ftcs_trunk_group_occupancy{exchange=\"%s\",group=\"%u\","
              "from=\"%u\",to=\"%u\"} %u\n",
              inst, g.group, g.from, g.to, g.occupancy);
    appendf(out, "# TYPE ftcs_trunk_group_claims_total counter\n");
    for (const svc::TrunkGauge& g : s.trunks)
      appendf(out,
              "ftcs_trunk_group_claims_total{exchange=\"%s\",group=\"%u\","
              "from=\"%u\",to=\"%u\"} %" PRIu64 "\n",
              inst, g.group, g.from, g.to, g.claims);
    appendf(out, "# TYPE ftcs_trunk_group_rejects_total counter\n");
    for (const svc::TrunkGauge& g : s.trunks)
      appendf(out,
              "ftcs_trunk_group_rejects_total{exchange=\"%s\",group=\"%u\","
              "from=\"%u\",to=\"%u\"} %" PRIu64 "\n",
              inst, g.group, g.from, g.to, g.rejects);
  }
  return out;
}

std::string MetricsRegistry::json(const Sample& s) const {
  std::string out;
  out.reserve(8 * 1024);
  appendf(out, "{\"instance\":\"%s\",\"scrape_seq\":%" PRIu64 ",",
          instance_.c_str(), s.scrape_seq);
  appendf(out,
          "\"gauges\":{\"active_calls\":%zu,\"pending\":%zu,"
          "\"failed_switches\":%zu,\"stuck_switches\":%zu,\"shorted\":%s},",
          s.active_calls, s.pending, s.failed_switches, s.stuck_switches,
          s.shorted ? "true" : "false");
  for (const char* section : {"total", "delta"}) {
    appendf(out, "\"%s\":{", section);
    bool first = true;
    for (const NamedCounter& c : flat_counters(s)) {
      appendf(out, "%s\"%s\":%" PRIu64, first ? "" : ",", c.name,
              section[0] == 't' ? c.total : c.delta);
      first = false;
    }
    for (const NamedReject& r : reject_book(s)) {
      appendf(out, ",\"rejects_%s\":%" PRIu64, r.reason,
              section[0] == 't' ? r.total : r.delta);
    }
    appendf(out, "},");
  }
  out += "\"classes\":[";
  for (std::size_t c = 0; c < kQosClasses; ++c) {
    const ClassStats& cs = s.total.classes[c];
    appendf(out,
            "%s{\"class\":%zu,\"served\":%" PRIu64 ",\"rejected\":%" PRIu64
            ",\"sla_violations\":%" PRIu64
            ",\"count\":%" PRIu64
            ",\"sum_seconds\":%.9g,\"p50_seconds\":%.9g,\"p99_seconds\":%.9g}",
            c == 0 ? "" : ",", c, cs.served, cs.rejected, cs.sla_violations,
            cs.setup.count(), cs.setup.sum_seconds(), cs.setup.quantile(0.50),
            cs.setup.quantile(0.99));
  }
  out += "]";
  if (s.federated) {
    appendf(out,
            ",\"federation\":{\"shards\":%zu,\"half_calls_active\":%zu,",
            s.shards, s.half_calls);
    for (const char* section : {"total", "delta"}) {
      appendf(out, "\"%s\":{", section);
      bool first = true;
      for (const NamedCounter& c : fed_counters(s)) {
        appendf(out, "%s\"%s\":%" PRIu64, first ? "" : ",", c.name,
                section[0] == 't' ? c.total : c.delta);
        first = false;
      }
      appendf(out, "},");
    }
    out += "\"trunk_groups\":[";
    bool first = true;
    for (const svc::TrunkGauge& g : s.trunks) {
      appendf(out,
              "%s{\"group\":%u,\"from\":%u,\"to\":%u,\"capacity\":%u,"
              "\"usable\":%u,\"occupancy\":%u,\"claims\":%" PRIu64
              ",\"rejects\":%" PRIu64 "}",
              first ? "" : ",", g.group, g.from, g.to, g.capacity, g.usable,
              g.occupancy, g.claims, g.rejects);
      first = false;
    }
    out += "]}";
  }
  out += "}";
  return out;
}

}  // namespace ftcs::ops
