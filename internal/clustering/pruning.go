package clustering

// PruneMode selects whether an algorithm's assignment loops use the exact
// bound-based pruning engine (internal/core's Hamerly-bounded Assigner, the
// RelocEngine's settled-object filter, and internal/ukmedoids' closed-form
// medoid filter).
//
// Pruning is *exact*: every skip is justified by a proven lower bound on the
// candidate's distance (or objective delta), so for a fixed seed the
// partition produced with pruning enabled is identical to the one produced
// with pruning disabled — only the amount of arithmetic differs. The
// cross-check tests assert this for every algorithm.
type PruneMode int

const (
	// PruneAuto is the zero value and means "pruning on" — the engine is
	// the default because it never changes results.
	PruneAuto PruneMode = iota
	// PruneOn forces pruning on (same behavior as PruneAuto; the explicit
	// value exists so configurations can be stated positively).
	PruneOn
	// PruneOff disables every bound test; all candidate distances are
	// evaluated. Used by the exactness cross-checks and for bound-free
	// baseline measurements.
	PruneOff
)

// Enabled reports whether the mode activates the pruning engine.
func (p PruneMode) Enabled() bool { return p != PruneOff }

// String implements fmt.Stringer for reports and JSON output.
func (p PruneMode) String() string {
	switch p {
	case PruneOff:
		return "off"
	case PruneOn:
		return "on"
	default:
		return "auto"
	}
}
