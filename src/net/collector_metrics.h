// Global registry mirrors of the per-instance collector counters
// (net/collector.h): one handle set per process, so a metrics snapshot sums
// every Collector instance. The obs registry dedups by metric name, so the
// handles are shared, not re-registered, across instances.
#pragma once

#include "obs/metrics.h"

namespace autosens::net {

struct CollectorMetrics {
  obs::Counter& connections = obs::registry().counter(
      "autosens_collector_connections_total", "Emitter connections accepted");
  obs::Counter& frames = obs::registry().counter(
      "autosens_collector_frames_total", "Wire frames decoded");
  obs::Counter& records = obs::registry().counter(
      "autosens_collector_records_total", "Telemetry records ingested");
  obs::Counter& flushes = obs::registry().counter(
      "autosens_collector_flushes_total", "Flush markers received");
  obs::Counter& drops = obs::registry().counter(
      "autosens_collector_dropped_connections_total",
      "Connections dropped on protocol or transport error");
  obs::Counter& bytes = obs::registry().counter(
      "autosens_collector_bytes_total", "Payload bytes received");
  obs::Counter& backpressure = obs::registry().counter(
      "autosens_collector_backpressure_reads_total",
      "recv() calls that filled the whole buffer (ingest running behind)");
  obs::Counter& resyncs = obs::registry().counter(
      "autosens_net_resyncs_total",
      "Damaged byte runs scanned past to the next valid frame");
  obs::Counter& resync_bytes = obs::registry().counter(
      "autosens_net_resync_bytes_total", "Garbage bytes discarded by frame resync");
  obs::Counter& dedup_hits = obs::registry().counter(
      "autosens_net_dedup_hits_total",
      "Retransmitted frames dropped by (session, seq) dedup");
  obs::Counter& sessions = obs::registry().counter(
      "autosens_collector_sessions_total", "Distinct emitter sessions seen");
  obs::Gauge& sessions_active = obs::registry().gauge(
      "autosens_net_sessions_active",
      "Emitter sessions seen whose goodbye has not arrived yet");
  obs::Counter& session_reconnects = obs::registry().counter(
      "autosens_collector_session_reconnects_total",
      "Hello frames for an already-known session (emitter reconnects)");
  obs::Counter& deadline_drops = obs::registry().counter(
      "autosens_net_deadline_drops_total",
      "Connections dropped by the per-connection read deadline");
  obs::Counter& interrupted = obs::registry().counter(
      "autosens_collector_interrupted_connections_total",
      "Session connections that ended without a goodbye (retry artifacts "
      "or emitters that died)");
  obs::Gauge& idle_timeout_outcome = obs::registry().gauge(
      "autosens_collector_idle_timeout_outcome",
      "1 when the last serve loop ended on idle timeout, 0 when all "
      "goodbyes arrived");
  obs::Counter& udp_lost = obs::registry().counter(
      "autosens_net_udp_lost_total",
      "Datagram sequence gaps still open when their session finalized "
      "(exact per-session UDP loss accounting)");
  obs::Counter& udp_datagrams = obs::registry().counter(
      "autosens_net_udp_datagrams_total", "UDP datagrams accepted (CRC-valid hello)");
};

/// The process-wide handle set (constructed on first use).
CollectorMetrics& collector_metrics();

}  // namespace autosens::net
