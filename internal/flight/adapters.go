// Producer tees. The dependency direction is the same as obs's: the
// producers (sched, gpu, cluster, profile) expose observer interfaces
// and cannot import flight, so flight implements their interfaces and
// forwards to an optional inner observer — one hook feeds the live
// session and the black box at once. Track labels come from obs's
// interned lane names, keeping the record path 0 allocs/op.
package flight

import (
	"time"

	"perfeng/internal/cluster"
	"perfeng/internal/gpu"
	"perfeng/internal/obs"
	"perfeng/internal/profile"
	"perfeng/internal/sched"
)

// SchedTee implements sched.Observer: executed ranges land in the
// recorder on obs.SchedTrack lanes and forward to inner, if any. The
// flat ring record keeps the submitting region's id in Value (the one
// spare numeric slot), so sched spans in a drained black box still
// group by region; full steal provenance travels through inner. Attach
// with sched.Observe(flight.NewSchedTee(rec, innerObserver)).
type SchedTee struct {
	rec   *Recorder
	inner sched.Observer
}

// NewSchedTee builds a tee over rec forwarding to inner (nil for none).
func NewSchedTee(rec *Recorder, inner sched.Observer) *SchedTee {
	return &SchedTee{rec: rec, inner: inner}
}

// TaskRan implements sched.Observer.
func (t *SchedTee) TaskRan(info sched.TaskInfo) {
	t.rec.Record(Record{
		Kind: KindSpan, Track: obs.SchedTrack(info.Executor), Name: "parfor", Detail: info.Policy.String(),
		Start: t.rec.At(info.Start), Dur: info.Dur, Value: float64(info.Region),
	})
	if t.inner != nil {
		t.inner.TaskRan(info)
	}
}

// GPUTee implements gpu.Recorder: kernel launches become "gpu device"
// spans, executed blocks land on obs.GPUSMTrack lanes, both forwarded
// to inner (typically obs.NewGPURecorder). Attach with
// dev.Recorder = flight.NewGPUTee(rec, inner).
type GPUTee struct {
	rec   *Recorder
	inner gpu.Recorder
}

// NewGPUTee builds a tee over rec forwarding to inner (nil for none).
func NewGPUTee(rec *Recorder, inner gpu.Recorder) *GPUTee {
	return &GPUTee{rec: rec, inner: inner}
}

// KernelLaunch implements gpu.Recorder.
func (t *GPUTee) KernelLaunch(name string, grid, block gpu.Dim3, sharedLen, workers int, start, end time.Time) {
	t.rec.RecordSpan("gpu device", name, "", t.rec.At(start), end.Sub(start))
	if t.inner != nil {
		t.inner.KernelLaunch(name, grid, block, sharedLen, workers, start, end)
	}
}

// KernelBlock implements gpu.Recorder.
func (t *GPUTee) KernelBlock(name string, worker int, blockIdx gpu.Dim3, start, end time.Time) {
	t.rec.RecordSpan(obs.GPUSMTrack(worker), "block", name, t.rec.At(start), end.Sub(start))
	if t.inner != nil {
		t.inner.KernelBlock(name, worker, blockIdx, start, end)
	}
}

// ClusterListener returns a cluster.Tracer listener capturing every
// recorded event on obs.RankTrack lanes. The world's labels are
// resolved here, so recording stays 0 allocs/op at any size. Attach
// with tracer.Listen(flight.ClusterListener(rec, size)).
func ClusterListener(rec *Recorder, size int) func(rank int, e cluster.Event) {
	labels := make([]string, size)
	for i := range labels {
		labels[i] = obs.RankTrack(i)
	}
	return func(rank int, e cluster.Event) {
		if rank < 0 || rank >= len(labels) {
			return
		}
		rec.RecordSpan(labels[rank], e.Kind.String(), "", rec.At(e.Start), e.End.Sub(e.Start))
	}
}

// SpanListener returns a profile.SpanListener capturing region exits
// onto the named track — the black-box mirror of
// obs.Track.ProfileListener.
func SpanListener(rec *Recorder, track string) profile.SpanListener {
	return func(path []string, start, end time.Time) {
		rec.RecordSpan(track, path[len(path)-1], "", rec.At(start), end.Sub(start))
	}
}
