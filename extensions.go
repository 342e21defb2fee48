package dvsreject

import (
	"dvsreject/internal/dormant"
	"dvsreject/internal/multiproc"
	"dvsreject/internal/online"
	"dvsreject/internal/reclaim"
	"dvsreject/internal/sched/edf"
	"dvsreject/internal/sched/yds"
)

// This file re-exports the extension subsystems (multiprocessor,
// online-arrival, slack-reclamation, procrastination) and the scheduler
// substrates through the public API, so downstream users are not blocked
// by the internal/ boundary. See DESIGN.md for what is paper scope versus
// clearly-labeled extension.

// Scheduler substrates.
type (
	// Job is one real-time job instance for the EDF simulator.
	Job = edf.Job
	// JobResult is one job's simulation outcome.
	JobResult = edf.JobResult
	// SimResult is an EDF simulation outcome (completions, misses, trace).
	SimResult = edf.Result
	// YDSSchedule is the optimal speed schedule for jobs with arbitrary
	// windows (Yao–Demers–Shenker).
	YDSSchedule = yds.Schedule
)

// SimulateEDF runs preemptive EDF over the jobs with the processor
// following the speed profile (see internal/sched/edf).
var SimulateEDF = edf.Simulate

// ComputeYDS computes the minimum-energy speed schedule for jobs with
// arbitrary release times and deadlines.
var ComputeYDS = yds.Compute

// Multiprocessor extension: partitioned-EDF rejection on M identical
// processors — the all-equal case of the internal processor-profile-vector
// solvers, which these types wrap.
type (
	// MultiprocInstance is a multiprocessor rejection problem.
	MultiprocInstance = multiproc.Instance
	// MultiprocSolution is a partitioned admission decision.
	MultiprocSolution = multiproc.Solution
	// LTFReject is the constructive partition+admission heuristic.
	LTFReject = multiproc.LTFReject
	// LTFRejectLS adds reject/admit/migrate/swap/exchange local search.
	LTFRejectLS = multiproc.LTFRejectLS
	// MultiprocExhaustive is the exact partitioned reference (tiny n),
	// with an optional prefix-parallel search (Workers).
	MultiprocExhaustive = multiproc.Exhaustive
)

// Online-arrival extension: irrevocable admission at arrival time over
// Optimal-Available (YDS re-planning) execution.
type (
	// OnlineJob is one aperiodic job with arrival, deadline and penalty.
	OnlineJob = online.Job
	// OnlinePolicy decides admissions at arrival instants.
	OnlinePolicy = online.Policy
	// OnlineResult is an online run's outcome.
	OnlineResult = online.Result
	// MarginalCostPolicy admits iff planned energy increase < penalty.
	MarginalCostPolicy = online.MarginalCost
	// AdmitFeasiblePolicy admits whenever smax permits.
	AdmitFeasiblePolicy = online.AdmitFeasible
)

// SimulateOnline runs the online event loop under a policy.
var SimulateOnline = online.Simulate

// OfflineOptimal is the clairvoyant reference for online runs.
var OfflineOptimal = online.OfflineOptimal

// Slack-reclamation extension: run-time cycles below WCET.
type (
	// ReclaimTask pairs a worst-case budget with actual usage.
	ReclaimTask = reclaim.Task
	// ReclaimPolicy selects Static, CycleConserving or Oracle execution.
	ReclaimPolicy = reclaim.Policy
	// ReclaimTrace is a frame execution trace under one policy.
	ReclaimTrace = reclaim.Trace
)

// Reclamation policies.
const (
	ReclaimStatic          = reclaim.Static
	ReclaimCycleConserving = reclaim.CycleConserving
	ReclaimOracle          = reclaim.Oracle
)

// RunReclaim executes admitted tasks within one frame under a policy.
var RunReclaim = reclaim.Run

// Procrastination extension: idle-gap analysis and ALAP consolidation.
type (
	// IdleAnalysis prices the idle gaps of a schedule.
	IdleAnalysis = dormant.Analysis
	// ExecMode selects eager (ASAP) or procrastinated (ALAP) execution.
	ExecMode = dormant.Mode
)

// Execution modes.
const (
	ExecASAP = dormant.ASAP
	ExecALAP = dormant.ALAP
)

// CompareIdleModes analyzes ASAP vs ALAP idle energy for a job set at a
// constant speed.
var CompareIdleModes = dormant.Compare
