// Package ctxflow exercises the context-propagation analyzer. Loaded
// under a cancellation-threaded import path (internal/campaign here) the
// marked calls must be flagged; loaded anywhere else the same file must
// stay silent.
package ctxflow

import "context"

// spec mirrors campaign.Spec: cancellation rides a struct field.
type spec struct {
	Ctx context.Context
}

// holder mirrors experiments.Env: a context stored at construction time.
type holder struct {
	ctx context.Context
}

// work is a ctx-accepting callee.
func work(ctx context.Context) error { return ctx.Err() }

// legacy is the ctx-less wrapper shape (a Foo beside FooCtx): it defaults
// to Background. Not flagged itself — it has no ctx to forward — but
// calling it from a ctx-receiving function is a severed chain.
func legacy() error { return work(context.Background()) }

// runSpec is the spec-threaded shape: ctx-less, defaulting only when the
// spec carries none.
func runSpec(s spec) error {
	ctx := s.Ctx
	if ctx == nil {
		ctx = context.Background()
	}
	return work(ctx)
}

// fresh conjures a new root context on a threaded path.
func fresh(ctx context.Context) error {
	return work(context.Background()) // want ctxflow
}

// stored passes the constructor-time context instead of the parameter.
func (h *holder) stored(ctx context.Context) error {
	return work(h.ctx) // want ctxflow
}

// dropped calls the ctx-less defaulting wrapper without handing over ctx.
func dropped(ctx context.Context) error {
	return legacy() // want ctxflow
}

// forwarded is the required idiom.
func forwarded(ctx context.Context) error {
	return work(ctx)
}

// derived forwards a context derived from the parameter.
func derived(ctx context.Context) error {
	inner, cancel := context.WithCancel(ctx)
	defer cancel()
	return work(inner)
}

// viaSpec hands ctx to a defaulting callee through a spec field: the
// chain is intact, so rule 3 stays silent.
func viaSpec(ctx context.Context) error {
	return runSpec(spec{Ctx: ctx})
}

// nilGuard re-seeds the parameter under the defensive nil default.
func nilGuard(ctx context.Context) error {
	if ctx == nil {
		ctx = context.Background()
	}
	return work(ctx)
}

// allowed shows the suppression hatch for a reviewed exception.
func allowed(ctx context.Context) error {
	return work(context.Background()) //teva:allow ctxflow -- reviewed: audit write must survive cancellation
}
