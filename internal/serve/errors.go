package serve

import (
	"fmt"
	"time"
)

// Machine-readable rejection codes carried by every non-2xx JSON error body
// (documented in the README's error-schema section). 429 responses
// additionally carry a Retry-After header.
const (
	CodeBadSpec       = "bad_spec"
	CodeNotFound      = "not_found"
	CodeConflict      = "conflict"
	CodeDraining      = "draining"
	CodeQueueFull     = "queue_full"
	CodeQuotaRate     = "quota_rate"
	CodeQuotaInFlight = "quota_inflight"
	CodeQuotaBytes    = "quota_bytes"
	CodeOverloaded    = "overloaded"
	CodeDegraded      = "degraded"
	CodeInternal      = "internal"
)

// AdmissionError is a refused submission: backpressure, shedding, quota, or
// drain. The HTTP layer maps it to 429 (503 for draining) with a Retry-After
// header and a structured JSON body; programmatic callers can errors.As it
// and read the same fields. It unwraps to the legacy sentinels (ErrQueueFull,
// ErrDraining) where one applies, so errors.Is keeps working.
type AdmissionError struct {
	Code       string        // one of the Code* constants
	Tenant     string        // tenant the decision applied to
	QueueDepth int           // queue depth at decision time
	RetryAfter time.Duration // suggested client backoff
	Err        error         // wrapped sentinel (ErrQueueFull/ErrDraining) or nil
	msg        string
}

func (e *AdmissionError) Error() string {
	m := e.msg
	if m == "" && e.Err != nil {
		m = e.Err.Error()
	}
	if m == "" {
		m = "submission refused"
	}
	return fmt.Sprintf("serve: %s (code=%s, tenant=%s, queue_depth=%d, retry_after=%s)",
		m, e.Code, e.Tenant, e.QueueDepth, e.RetryAfter)
}

func (e *AdmissionError) Unwrap() error { return e.Err }

// retryAfterSeconds rounds the hint up to whole seconds for the Retry-After
// header (which is integer-valued); never below 1.
func (e *AdmissionError) retryAfterSeconds() int {
	s := int((e.RetryAfter + time.Second - 1) / time.Second)
	if s < 1 {
		s = 1
	}
	return s
}
