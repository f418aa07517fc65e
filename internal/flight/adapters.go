// Producer sinks. The dependency direction is the same as obs's: the
// producers (sched, gpu, cluster, profile) each expose one probe.Hook
// and cannot import flight, so flight provides sink functions to attach
// there, next to obs's. Track labels come from obs's interned lane
// names, keeping the record path 0 allocs/op. Every constructor
// returns nil for a nil recorder, which probe.Hook.Attach ignores, so
// wiring can pass flight.Active() unconditionally.
package flight

import (
	"perfeng/internal/cluster"
	"perfeng/internal/gpu"
	"perfeng/internal/obs"
	"perfeng/internal/profile"
	"perfeng/internal/sched"
)

// SchedSink returns a sched.Pool.Tasks sink: executed ranges land in
// the recorder on obs.SchedTrack lanes. The flat ring record keeps the
// submitting region's id in Value (the one spare numeric slot), so
// sched spans in a drained black box still group by region; full steal
// provenance is obs.SchedSink's job.
func SchedSink(rec *Recorder) func(sched.TaskInfo) {
	if rec == nil {
		return nil
	}
	return func(info sched.TaskInfo) {
		rec.Record(Record{
			Kind: KindSpan, Track: obs.SchedTrack(info.Executor), Name: "parfor", Detail: info.Policy.String(),
			Start: rec.At(info.Start), Dur: info.Dur, Value: float64(info.Region),
		})
	}
}

// GPUSink returns a gpu.Device.Events sink: kernel launches become
// "gpu device" spans, executed blocks land on obs.GPUSMTrack lanes.
func GPUSink(rec *Recorder) func(gpu.Event) {
	if rec == nil {
		return nil
	}
	return func(ev gpu.Event) {
		track, name, detail := "gpu device", ev.Kernel, ""
		if !ev.Launch {
			track, name, detail = obs.GPUSMTrack(ev.Worker), "block", ev.Kernel
		}
		rec.RecordSpan(track, name, detail, rec.At(ev.Start), ev.End.Sub(ev.Start))
	}
}

// ClusterSink returns a cluster.Tracer.Events sink capturing every
// recorded event on obs.RankTrack lanes. The world's labels are
// resolved here, so recording stays 0 allocs/op at any size.
func ClusterSink(rec *Recorder, size int) func(cluster.Event) {
	if rec == nil {
		return nil
	}
	labels := make([]string, size)
	for i := range labels {
		labels[i] = obs.RankTrack(i)
	}
	return func(e cluster.Event) {
		if e.Rank < 0 || e.Rank >= len(labels) {
			return
		}
		rec.RecordSpan(labels[e.Rank], e.Kind.String(), "", rec.At(e.Start), e.End.Sub(e.Start))
	}
}

// ProfileSink returns a profile.Profiler.Spans sink capturing region
// exits onto the named track — the black-box mirror of obs.ProfileSink.
func ProfileSink(rec *Recorder, track string) func(profile.Span) {
	if rec == nil {
		return nil
	}
	return func(sp profile.Span) {
		rec.RecordSpan(track, sp.Path[len(sp.Path)-1], "", rec.At(sp.Start), sp.End.Sub(sp.Start))
	}
}
