package cluster

import (
	"sync/atomic"
	"time"

	"perfeng/internal/telemetry"
)

// Live-telemetry hooks for the communication tracer. Event recording
// already takes a mutex per event, so the extra counter increments are
// in the noise. Disabled, the handles are the nil metrics of a nil
// registry, which no-op.

type telHandles struct {
	events     *telemetry.CounterFamily
	bytesSent  *telemetry.Counter
	bytesRecv  *telemetry.Counter
	lateSender *telemetry.Gauge
	imbalance  *telemetry.Gauge
}

// tel is never nil: disabled, it holds the handle set of a nil
// registry.
var tel atomic.Pointer[telHandles]

func init() { EnableTelemetry(nil) }

// EnableTelemetry publishes tracer activity to reg: events by kind,
// bytes moved, and — refreshed on every AnalyzeWaitStates — the
// late-sender total and load-imbalance ratio. Passing nil stops
// publication.
func EnableTelemetry(reg *telemetry.Registry) {
	tel.Store(&telHandles{
		events: reg.CounterFamily("perfeng_cluster_events",
			"Traced communication events by kind.", "kind"),
		bytesSent: reg.Counter("perfeng_cluster_bytes_sent",
			"Payload bytes recorded on send events."),
		bytesRecv: reg.Counter("perfeng_cluster_bytes_recv",
			"Payload bytes recorded on recv events."),
		lateSender: reg.Gauge("perfeng_cluster_late_sender_seconds",
			"Late-sender wait time across all ranks, from the last analysis."),
		imbalance: reg.Gauge("perfeng_cluster_imbalance_ratio",
			"Load-imbalance ratio (max-min)/max, from the last analysis."),
	})
}

// publishEvent counts one recorded event; called from record.
func publishEvent(e Event) {
	th := tel.Load()
	th.events.With(e.Kind.String()).Inc()
	switch e.Kind {
	case EvSend:
		if e.Bytes > 0 {
			th.bytesSent.Add(uint64(e.Bytes))
		}
	case EvRecv:
		if e.Bytes > 0 {
			th.bytesRecv.Add(uint64(e.Bytes))
		}
	}
}

// publishWaitStates refreshes the analysis gauges; called from
// AnalyzeWaitStates with the freshly computed diagnosis.
func publishWaitStates(ws WaitStates) {
	th := tel.Load()
	var late time.Duration
	for _, d := range ws.LateSenderTime {
		late += d
	}
	th.lateSender.Set(late.Seconds())
	th.imbalance.Set(ws.ImbalanceRatio)
}
