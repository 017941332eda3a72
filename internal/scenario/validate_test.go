package scenario

import (
	"errors"
	"fmt"
	"math"
	"reflect"
	"testing"
)

// buildBoth runs opts through both entry paths: the Options facade and the
// provider API with a zero Spec.
func buildBoth(opts Options) []error {
	_, err1 := Build("Greedy", opts)
	_, err2 := BuildSpec("Greedy", Spec{}, opts)
	return []error{err1, err2}
}

func wantOptionError(t *testing.T, what string, opts Options, field string) {
	t.Helper()
	for i, err := range buildBoth(opts) {
		var bad *OptionError
		if !errors.As(err, &bad) {
			t.Errorf("%s, entry path %d: err = %v, want an *OptionError", what, i, err)
		} else if bad.Field != field {
			t.Errorf("%s, entry path %d: error names %s, want %s (%v)", what, i, bad.Field, field, err)
		}
	}
}

// Every float64 field of Options, found by reflection so that a field added
// later cannot be forgotten, must be refused when it is NaN or ±Inf.
func TestOptionsRejectNonFiniteFloats(t *testing.T) {
	typ := reflect.TypeOf(Options{})
	floats := 0
	for i := 0; i < typ.NumField(); i++ {
		f := typ.Field(i)
		if f.Type.Kind() != reflect.Float64 {
			continue
		}
		floats++
		for _, v := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
			opts := Options{Seed: 1, Vehicles: 10, Duration: 2}
			reflect.ValueOf(&opts).Elem().Field(i).SetFloat(v)
			wantOptionError(t, fmt.Sprintf("%s = %v", f.Name, v), opts, f.Name)
		}
	}
	if floats == 0 {
		t.Fatal("reflection found no float64 field in Options")
	}
}

// A negative value is refused in every field where negative has no meaning
// (it used to become the default without a word).
func TestOptionsRejectNegatives(t *testing.T) {
	for _, name := range []string{
		"Vehicles", "HighwayLength", "LanesPerDirection", "GridN", "SpeedMean",
		"Range", "Buses", "Flows", "FlowPackets", "FlowInterval", "PacketSize",
		"Duration", "WarmUp", "TicketBudget",
		"ArrivalRate", "MeanLifetime",
	} {
		opts := Options{Seed: 1, Vehicles: 10, Duration: 2}
		f := reflect.ValueOf(&opts).Elem().FieldByName(name)
		switch f.Kind() {
		case reflect.Float64:
			f.SetFloat(-1)
		case reflect.Int:
			f.SetInt(-1)
		default:
			t.Fatalf("Options.%s is a %v", name, f.Kind())
		}
		wantOptionError(t, name+" = -1", opts, name)
	}
}

// The two negatives that mean something still build, and so does zero
// everywhere (the default).
func TestOptionsExemptNegativesBuild(t *testing.T) {
	for what, opts := range map[string]Options{
		"RSUs = -1 (explicitly none)": {Seed: 1, Vehicles: 10, Duration: 2, RSUs: -1},
		"SpeedStd = -1 (zero spread)": {Seed: 1, Vehicles: 10, Duration: 2, SpeedStd: -1},
		"the zero value":              {},
	} {
		for i, err := range buildBoth(opts) {
			if err != nil {
				t.Errorf("%s, entry path %d: %v", what, i, err)
			}
		}
	}
	sc, err := Build("DRR", Options{Seed: 1, Vehicles: 10, Duration: 2, RSUs: -1})
	if err != nil {
		t.Fatal(err)
	}
	if len(sc.RSUs) != 0 {
		t.Errorf("RSUs = -1 placed %d road-side units", len(sc.RSUs))
	}
}
