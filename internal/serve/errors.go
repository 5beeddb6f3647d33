package serve

import (
	"fmt"
	"time"
)

// Machine-readable rejection codes carried by every non-2xx JSON error body
// (documented in the README's error-schema section). 429 responses
// additionally carry a Retry-After header.
const (
	CodeBadSpec   = "bad_spec"
	CodeNotFound  = "not_found"
	CodeConflict  = "conflict"
	CodeDraining  = "draining"
	CodeQueueFull = "queue_full"
)

// AdmissionError is a refused submission: a full queue or a drain. The HTTP
// layer maps it to 429 (503 for draining) with a Retry-After header and a
// structured JSON body; programmatic callers can errors.As it and read the
// same fields. It unwraps to its sentinel (ErrQueueFull or ErrDraining), so
// errors.Is keeps working.
type AdmissionError struct {
	Code       string        // one of the Code* constants
	Tenant     string        // tenant the decision applied to
	QueueDepth int           // queue depth at decision time
	RetryAfter time.Duration // suggested client backoff
	Err        error         // wrapped sentinel (ErrQueueFull/ErrDraining)
}

func (e *AdmissionError) Error() string {
	return fmt.Sprintf("%v (code=%s, tenant=%s, queue_depth=%d, retry_after=%s)",
		e.Err, e.Code, e.Tenant, e.QueueDepth, e.RetryAfter)
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
