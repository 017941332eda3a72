package scenario

import (
	"fmt"
	"math"
)

// OptionError reports an Options field holding a value that means nothing:
// a non-finite number, or a negative one where zero already means "the
// default". Build and BuildSpec return it before any default is applied.
type OptionError struct {
	Field  string // the Options field, by its Go name
	Value  any
	Reason string
}

func (e *OptionError) Error() string {
	return fmt.Sprintf("scenario: option %s = %v: %s", e.Field, e.Value, e.Reason)
}

// Validate rejects what setDefaults would otherwise hide (a negative value
// silently becoming the default) or let through (NaN compares false with
// everything, so it survives every "<= 0" and poisons the run). Zero still
// means default. The two negatives with a meaning of their own stay legal:
// RSUs = −1 is "explicitly none" (any lower count is refused) and
// SpeedStd < 0 is "zero spread". Build
// and BuildSpec call it; a caller that fans one Options out into many runs
// calls it first, so nothing is set up for runs that can never execute.
func (o *Options) Validate() error {
	for _, f := range []struct {
		name  string
		v     float64
		negOK bool
	}{
		{"ArrivalRate", o.ArrivalRate, false},
		{"MeanLifetime", o.MeanLifetime, false},
		{"HighwayLength", o.HighwayLength, false},
		{"SpeedMean", o.SpeedMean, false},
		{"SpeedStd", o.SpeedStd, true},
		{"Range", o.Range, false},
		{"FlowInterval", o.FlowInterval, false},
		{"Duration", o.Duration, false},
		{"WarmUp", o.WarmUp, false},
	} {
		if math.IsNaN(f.v) || math.IsInf(f.v, 0) {
			return &OptionError{f.name, f.v, "must be finite"}
		}
		if f.v < 0 && !f.negOK {
			return &OptionError{f.name, f.v, "must not be negative"}
		}
	}
	for _, f := range []struct {
		name string
		v    int
	}{
		{"Vehicles", o.Vehicles},
		{"LanesPerDirection", o.LanesPerDirection},
		{"GridN", o.GridN},
		{"Buses", o.Buses},
		{"Flows", o.Flows},
		{"FlowPackets", o.FlowPackets},
		{"PacketSize", o.PacketSize},
		{"TicketBudget", o.TicketBudget},
	} {
		if f.v < 0 {
			return &OptionError{f.name, f.v, "must not be negative"}
		}
	}
	if o.RSUs < -1 {
		return &OptionError{"RSUs", o.RSUs, "must be -1 (none), 0 (the protocol's default) or a count"}
	}
	return nil
}
