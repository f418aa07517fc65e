// Package gpu provides the accelerator substrate of the course's
// heterogeneous-systems story: a SIMT-style device executor (grid/block/
// thread over a goroutine pool standing in for streaming multiprocessors)
// plus the occupancy, coalescing and offload performance models students
// apply to the "GPU as accelerator device to the CPU host" (Section 2.1).
//
// The executor is a functional substitute for CUDA, not a timing-accurate
// GPU simulator: it runs kernels with the CUDA execution geometry
// (gridDim/blockDim/blockIdx/threadIdx, per-block shared memory) so the
// course's GPU exercises can execute anywhere, while the analytical models
// in model.go answer the performance questions (what limits the kernel,
// is offload worthwhile) that the assignments pose.
package gpu

import (
	"errors"
	"fmt"
	"runtime"
	"sync/atomic"
	"time"

	"perfeng/internal/machine"
	"perfeng/internal/probe"
	"perfeng/internal/sched"
)

// Dim3 is the CUDA-style 3D geometry index.
type Dim3 struct {
	X, Y, Z int
}

// Count returns the number of points in the geometry.
func (d Dim3) Count() int { return d.X * d.Y * d.Z }

// valid reports whether all components are positive.
func (d Dim3) valid() bool { return d.X > 0 && d.Y > 0 && d.Z > 0 }

// Kernel is the device function: invoked once per thread with its block
// and thread indices and the block's shared memory.
type Kernel func(blockIdx, threadIdx Dim3, shared []float64)

// RegsPerThread is the per-thread register count assumed when deriving
// a launch's occupancy: the executor does not model registers, so this
// is the usual CUDA compiler ballpark and the course's default kernel
// budget.
const RegsPerThread = 32

// Event is one kernel-execution event on Device.Events: the host-side
// view of a whole launch (Launch set), carrying the geometry, the
// number of concurrently executing blocks and the modeled occupancy
// at RegsPerThread; or one executed block on its worker "SM".
type Event struct {
	Kernel      string
	Launch      bool
	Grid, Block Dim3
	SharedLen   int // per-block shared memory, in float64s
	Workers     int
	// Occupancy is computed once per launch; its Fraction is 0 when the
	// block cannot fit on an SM.
	Occupancy  Occupancy
	Worker     int  // the lane that ran a block event
	BlockIdx   Dim3 // the block a block event ran
	Start, End time.Time
}

// Device executes kernels with the geometry of the modeled GPU.
type Device struct {
	Model machine.GPU
	// Workers is the number of concurrently executing blocks (defaults to
	// min(SMs, GOMAXPROCS)).
	Workers int
	// Events receives one event per executed block and one per launch
	// while any sink is attached. Block events arrive concurrently.
	Events probe.Hook[Event]
}

// NewDevice creates a device for the model.
func NewDevice(model machine.GPU) (*Device, error) {
	if err := model.Validate(); err != nil {
		return nil, err
	}
	w := model.SMs
	if p := runtime.GOMAXPROCS(0); p < w {
		w = p
	}
	if w < 1 {
		w = 1
	}
	return &Device{Model: model, Workers: w}, nil
}

// Launch runs the kernel over grid x block threads. Each block gets a
// fresh shared-memory slice of sharedLen float64s. Threads within a block
// run sequentially in (z, y, x) order — the warp-synchronous
// approximation, which makes shared-memory reductions deterministic;
// blocks run concurrently, so cross-block communication must use atomics,
// as on real devices.
func (d *Device) Launch(grid, block Dim3, sharedLen int, kernel Kernel) error {
	return d.LaunchNamed("kernel", grid, block, sharedLen, kernel)
}

// LaunchNamed is Launch with a kernel name for the trace recorder, so a
// timeline shows "saxpy" rather than an anonymous launch.
func (d *Device) LaunchNamed(name string, grid, block Dim3, sharedLen int, kernel Kernel) error {
	if kernel == nil {
		return errors.New("gpu: nil kernel")
	}
	if !grid.valid() || !block.valid() {
		return fmt.Errorf("gpu: invalid geometry grid=%+v block=%+v", grid, block)
	}
	if block.Count() > d.Model.MaxThreadsPerSM {
		return fmt.Errorf("gpu: block of %d threads exceeds device limit %d",
			block.Count(), d.Model.MaxThreadsPerSM)
	}
	if sharedLen*8 > d.Model.SharedMemPerSMBytes {
		return fmt.Errorf("gpu: shared memory %dB exceeds per-SM limit %dB",
			sharedLen*8, d.Model.SharedMemPerSMBytes)
	}
	nBlocks := grid.Count()
	workers := d.Workers
	if workers > nBlocks {
		workers = nBlocks
	}
	traced := d.Events.Active()
	launchStart := time.Now()
	// Blocks are handed out dynamically from a shared counter; each lane of
	// the shared scheduler acts as one virtual SM, so at most d.Workers
	// blocks are in flight regardless of the pool's worker count.
	var next atomic.Int64
	err := func() (err error) {
		defer func() {
			if p := recover(); p != nil {
				err = fmt.Errorf("gpu: kernel panicked: %v", p)
			}
		}()
		sched.ParallelFor(workers, 1, func(lo, hi int) {
			for lane := lo; lane < hi; lane++ {
				for {
					i := int(next.Add(1)) - 1
					if i >= nBlocks {
						return
					}
					b := Dim3{X: i % grid.X, Y: (i / grid.X) % grid.Y, Z: i / (grid.X * grid.Y)}
					var shared []float64
					if sharedLen > 0 {
						shared = make([]float64, sharedLen)
					}
					var blockStart time.Time
					if traced {
						blockStart = time.Now()
					}
					for tz := 0; tz < block.Z; tz++ {
						for ty := 0; ty < block.Y; ty++ {
							for tx := 0; tx < block.X; tx++ {
								kernel(b, Dim3{X: tx, Y: ty, Z: tz}, shared)
							}
						}
					}
					if traced {
						d.Events.Emit(Event{Kernel: name, Worker: lane, BlockIdx: b, Start: blockStart, End: time.Now()})
					}
				}
			}
		})
		return nil
	}()
	ev := Event{Kernel: name, Launch: true, Grid: grid, Block: block, SharedLen: sharedLen,
		Workers: workers, Start: launchStart, End: time.Now()}
	// A block that cannot fit on an SM is reported through a zero
	// Fraction, which every reader checks; the error adds nothing.
	ev.Occupancy, _ = ComputeOccupancy(d.Model, block.Count(), RegsPerThread, sharedLen*8)
	if traced {
		d.Events.Emit(ev)
	}
	publishLaunch(tel.Load(), ev)
	return err
}

// Launch1D is the common 1D convenience wrapper: n threads in blocks of
// blockSize; the kernel receives the global thread id and must bounds-check
// against n itself (ids round up to a whole block, as in CUDA).
func (d *Device) Launch1D(n, blockSize int, kernel func(globalID int)) error {
	if n <= 0 || blockSize <= 0 {
		return errors.New("gpu: Launch1D needs positive sizes")
	}
	blocks := (n + blockSize - 1) / blockSize
	return d.Launch(Dim3{X: blocks, Y: 1, Z: 1}, Dim3{X: blockSize, Y: 1, Z: 1}, 0,
		func(b, t Dim3, _ []float64) {
			kernel(b.X*blockSize + t.X)
		})
}
