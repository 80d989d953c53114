package simsvc

import (
	"context"
	"errors"
	"fmt"

	"kagura/internal/faultinject"
)

// Fault-injection points instrumenting the service (DESIGN.md §10 catalogs
// them). Disabled — the production default — each is one atomic load.
var (
	// fpCompute fires at the start of every compute (error, panic, or latency
	// faults exercise the fail-fast, recover, and timeout paths).
	fpCompute = faultinject.Point("simsvc.compute")
	// fpCacheInsert fires after a successful compute, before the result is
	// published to the cache.
	fpCacheInsert = faultinject.Point("simsvc.cache.insert")
	// fpCoalesce fires when a submission coalesces onto an in-flight twin
	// (error-only: evaluated under the service mutex).
	fpCoalesce = faultinject.Point("simsvc.coalesce")
	// fpWarmEvict fires on warm-cache eviction passes (error-only, under the
	// mutex); an injected error forces one premature eviction.
	fpWarmEvict = faultinject.Point("simsvc.warm.evict")
	// fpWarmSnapshot fires inside the warm-start snapshot computation — the
	// owner-failure path.
	fpWarmSnapshot = faultinject.Point("simsvc.warmstart.snapshot")
	// fpWarmFork fires before a forked job resumes from its snapshot — the
	// degrade-to-cold path.
	fpWarmFork = faultinject.Point("simsvc.warmstart.fork")
	// fpHTTPBody fires while decoding a request body (latency simulates a
	// slow client, error an aborted body).
	fpHTTPBody = faultinject.Point("simsvc.http.body")
	// fpHTTPResponse fires in writeJSON before the response body is encoded
	// (error-only). An injected error simulates a connection dying mid-write:
	// the handler emits a truncated body and aborts with http.ErrAbortHandler,
	// exactly what a peer reset looks like from inside the server.
	fpHTTPResponse = faultinject.Point("simsvc.http.response")
)

// ErrorCode is the machine-readable error taxonomy carried in the `code`
// field of every /v1 error response and the kagura_errors_total metric.
type ErrorCode string

// Error taxonomy. One code per failure class a client can react to
// differently.
const (
	// CodeInvalidSpec: the run spec failed validation (bad app, codec, …).
	CodeInvalidSpec ErrorCode = "invalid_spec"
	// CodeBadRequest: the HTTP request itself was malformed (bad JSON, …).
	CodeBadRequest ErrorCode = "bad_request"
	// CodeQueueFull: the bounded job queue was at capacity.
	CodeQueueFull ErrorCode = "queue_full"
	// CodeOverloaded: the load-shedding breaker rejected the submission.
	CodeOverloaded ErrorCode = "overloaded"
	// CodeServiceClosed: the service is shut down.
	CodeServiceClosed ErrorCode = "service_closed"
	// CodeUnknownJob: no retained job has the requested ID.
	CodeUnknownJob ErrorCode = "unknown_job"
	// CodeTimeout: the job exceeded its execution timeout.
	CodeTimeout ErrorCode = "timeout"
	// CodeCanceled: the job was canceled.
	CodeCanceled ErrorCode = "canceled"
	// CodePanic: the compute panicked (recovered by the worker).
	CodePanic ErrorCode = "panic"
	// CodeFaultInjected: a chaos-plan fault surfaced as the job's error.
	CodeFaultInjected ErrorCode = "fault_injected"
	// CodeInternal: anything else.
	CodeInternal ErrorCode = "internal"
)

// errorCodes fixes the rendering order of kagura_errors_total{code} — the
// Prometheus exposition must be byte-stable, so the codes are enumerated
// here, never by ranging over a map.
var errorCodes = []ErrorCode{
	CodeBadRequest,
	CodeCanceled,
	CodeFaultInjected,
	CodeInternal,
	CodeInvalidSpec,
	CodeOverloaded,
	CodePanic,
	CodeQueueFull,
	CodeServiceClosed,
	CodeTimeout,
	CodeUnknownJob,
}

// Classify maps an error to its taxonomy code. Order matters: ErrOverloaded
// wraps ErrQueueFull, so the breaker is checked first.
func Classify(err error) ErrorCode {
	var pe *panicError
	var inj *faultinject.InjectedError
	var se *specError
	switch {
	case err == nil:
		return ""
	case errors.Is(err, ErrOverloaded):
		return CodeOverloaded
	case errors.Is(err, ErrQueueFull):
		return CodeQueueFull
	case errors.Is(err, ErrClosed):
		return CodeServiceClosed
	case errors.Is(err, ErrUnknownJob):
		return CodeUnknownJob
	case errors.As(err, &se):
		return CodeInvalidSpec
	case errors.Is(err, context.DeadlineExceeded):
		return CodeTimeout
	case errors.Is(err, context.Canceled):
		return CodeCanceled
	case errors.As(err, &pe):
		return CodePanic
	case errors.As(err, &inj):
		return CodeFaultInjected
	default:
		return CodeInternal
	}
}

// specError marks a spec-validation failure for Classify without altering the
// error's text or unwrap chain.
type specError struct{ err error }

func (e *specError) Error() string { return e.err.Error() }
func (e *specError) Unwrap() error { return e.err }

// badSpec books one validation failure and marks the error invalid_spec.
func (s *Service) badSpec(err error) error {
	s.noteError(CodeInvalidSpec)
	return &specError{err: err}
}

// panicError wraps a recovered compute panic. The job fails with code panic
// and the worker survives to run the next job; the panic is not retried,
// because a pure compute would panic again.
type panicError struct{ val any }

func (e *panicError) Error() string { return fmt.Sprintf("simsvc: job panicked: %v", e.val) }
