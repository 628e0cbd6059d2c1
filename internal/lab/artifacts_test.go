package lab

import (
	"net/netip"
	"reflect"
	"testing"
	"time"
)

// TestSameCensorConfigSeesEveryField mutates each censor.Config field in
// turn and requires sameCensorConfig to notice, so a field added to the
// config cannot slip past artifact validation.
func TestSameCensorConfigSeesEveryField(t *testing.T) {
	base := DefaultCensorConfig()
	if !sameCensorConfig(base, DefaultCensorConfig()) {
		t.Fatal("identical configs compare unequal")
	}
	typ := reflect.TypeOf(base)
	for i := 0; i < typ.NumField(); i++ {
		mut := DefaultCensorConfig()
		f := reflect.ValueOf(&mut).Elem().Field(i)
		switch {
		case f.Kind() == reflect.Slice:
			f.Set(reflect.Append(f, reflect.Zero(f.Type().Elem())))
		case f.Kind() == reflect.Bool:
			f.SetBool(!f.Bool())
		case f.Type() == reflect.TypeOf(time.Duration(0)):
			f.SetInt(f.Int() + 1)
		case f.Type() == reflect.TypeOf(netip.Addr{}):
			f.Set(reflect.ValueOf(netip.MustParseAddr("192.0.2.1")))
		default:
			t.Fatalf("censor.Config.%s: no mutation for type %s; teach this test and sameCensorConfig", typ.Field(i).Name, f.Type())
		}
		if sameCensorConfig(base, mut) {
			t.Errorf("sameCensorConfig misses a change to censor.Config.%s", typ.Field(i).Name)
		}
	}
	// Slices compare element by element, in order.
	mut := DefaultCensorConfig()
	mut.Keywords[0], mut.Keywords[1] = mut.Keywords[1], mut.Keywords[0]
	if sameCensorConfig(base, mut) {
		t.Error("sameCensorConfig ignores keyword order")
	}
}
