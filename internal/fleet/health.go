package fleet

import (
	"iceclave/internal/flash"
	"iceclave/internal/ftl"
)

// DefaultHealthFloor is the score below which a device counts as
// degraded and becomes a failover source.
const DefaultHealthFloor = 0.5

// Health-score penalty weights. A device starts at 1.0 and loses:
//
//   - deadDiePenalty per retired die (capped at deadDieCap): dead dies
//     are permanent capacity loss and the strongest death signal — a
//     scripted whole-device death alone drags the score to the cap.
//   - badBlockPenalty per retired block (capped at badBlockCap): wear.
//   - retryWeight × (read reissues / device reads), capped at retryCap:
//     the transient-fault rate the FTL is absorbing.
//   - readFaultWeight × (aborted reads / total reads), capped at
//     readFaultCap: faults the FTL could NOT absorb. Die deaths on the
//     read path surface here — the FTL retires dies only on the write
//     path, so a dead die under a read-heavy tenant is visible as
//     aborted reads, not as a DeadDies increment.
//   - tripPenalty per circuit-breaker trip (capped at tripCap): tenants
//     are already shedding load on this device.
//   - failedJobPenalty per failed offload (capped at failedJobCap): the
//     end-to-end casualty count, and the strongest live-path signal — a
//     device that kills its tenants' offloads is degraded no matter how
//     clean its retirement counters look.
//
// The inputs are the virtual-time counters every replay already
// produces (deterministic across fresh and pooled stacks), so
// the score — plain float64 arithmetic in a fixed order — is as
// replayable as the counters themselves.
const (
	deadDiePenalty   = 0.10
	deadDieCap       = 0.60
	badBlockPenalty  = 0.002
	badBlockCap      = 0.20
	retryWeight      = 2.0
	retryCap         = 0.20
	readFaultWeight  = 2.0
	readFaultCap     = 0.20
	tripPenalty      = 0.02
	tripCap          = 0.20
	failedJobPenalty = 0.20
	failedJobCap     = 0.60
)

// ScoreTelemetry folds one device's fault telemetry into a health score
// in [0, 1]: 1.0 is a clean device, DefaultHealthFloor the standard
// degradation threshold. FTL stats carry the recovery work (retired
// dies and blocks, read reissues), flash stats the raw operation and
// abort counts, trips the circuit-breaker opens observed against the
// device, failedJobs the offloads the device failed outright.
func ScoreTelemetry(fs ftl.Stats, ds flash.Stats, trips, failedJobs int64) float64 {
	score := 1.0
	score -= capAt(float64(fs.DeadDies)*deadDiePenalty, deadDieCap)
	score -= capAt(float64(fs.BadBlocks)*badBlockPenalty, badBlockCap)
	if ds.Reads > 0 {
		score -= capAt(retryWeight*float64(fs.ReadRetries)/float64(ds.Reads), retryCap)
	}
	if total := ds.Reads + ds.ReadFaults; total > 0 {
		score -= capAt(readFaultWeight*float64(ds.ReadFaults)/float64(total), readFaultCap)
	}
	score -= capAt(float64(trips)*tripPenalty, tripCap)
	score -= capAt(float64(failedJobs)*failedJobPenalty, failedJobCap)
	if score < 0 {
		score = 0
	}
	return score
}

func capAt(v, cap float64) float64 {
	if v > cap {
		return cap
	}
	return v
}
