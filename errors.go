package metascritic

import "errors"

// Sentinel errors of the public API. Every error returned by Run (and the
// engine/serving layers built on it) wraps exactly one of these, so
// callers can branch with errors.Is instead of string matching:
//
//	res, err := pipe.Run(ctx, metro, cfg)
//	switch {
//	case errors.Is(err, metascritic.ErrInvalidConfig):   // reject: caller bug
//	case errors.Is(err, metascritic.ErrCanceled):        // aborted: retryable
//	case errors.Is(err, metascritic.ErrBudgetExhausted): // serving layer: lower the budget
//	}
var (
	// ErrInvalidConfig is wrapped by every validation failure, so callers
	// can distinguish configuration mistakes from runtime failures.
	ErrInvalidConfig = errors.New("invalid config")

	// ErrCanceled is wrapped by every context-abort error. The same error
	// also wraps the context's own cause (context.Canceled or
	// context.DeadlineExceeded), so errors.Is matches either form.
	ErrCanceled = errors.New("run canceled")

	// ErrBudgetExhausted is wrapped when a serving-layer run submission
	// exceeds the server's measurement budget cap.
	ErrBudgetExhausted = errors.New("measurement budget exhausted")
)
