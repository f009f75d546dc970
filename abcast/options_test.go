package abcast

import (
	"reflect"
	"strings"
	"testing"
)

// TestProtocolOptionsValidateRejectsNegatives covers Validate field by
// field. The rows are the signed numeric fields of ProtocolOptions, found
// by reflection so the test follows the option surface: each must accept
// zero and positive values and reject a negative one with an error naming
// the field, never a silent clamp. IdleHeartbeat is the one exception (see
// the next test).
func TestProtocolOptionsValidateRejectsNegatives(t *testing.T) {
	typ := reflect.TypeOf(ProtocolOptions{})
	for i := 0; i < typ.NumField(); i++ {
		f := typ.Field(i)
		// time.Duration is an int64.
		if k := f.Type.Kind(); (k != reflect.Int && k != reflect.Int64) || f.Name == "IdleHeartbeat" {
			continue
		}
		t.Run(f.Name, func(t *testing.T) {
			for _, v := range []int64{0, 1} {
				var o ProtocolOptions
				reflect.ValueOf(&o).Elem().Field(i).SetInt(v)
				if err := o.Validate(); err != nil {
					t.Fatalf("%s = %d rejected: %v", f.Name, v, err)
				}
			}
			var o ProtocolOptions
			reflect.ValueOf(&o).Elem().Field(i).SetInt(-1)
			err := o.Validate()
			if err == nil {
				t.Fatalf("negative %s accepted", f.Name)
			}
			if !strings.Contains(err.Error(), f.Name) {
				t.Fatalf("error %q does not name the offending field %s", err, f.Name)
			}
		})
	}
}

// TestProtocolOptionsSurface pins the option surface: every field is one
// more value tests, soaks and the benchmark must cover, so adding one means
// editing this list and saying here which two callers need different values
// (a single value in use is a constant; storage policy belongs to
// WALOptions, lease timing to consensus.Config).
func TestProtocolOptionsSurface(t *testing.T) {
	want := []string{
		"CheckpointEvery", "Delta", "BatchedBroadcast", "IncrementalLog", "Checkpointer",
		"GossipInterval",
		"PipelineDepth", "MaxBatchBytes", "MaxBatchDelay",
		"IdleHeartbeat",
	}
	typ := reflect.TypeOf(ProtocolOptions{})
	var got []string
	for i := 0; i < typ.NumField(); i++ {
		got = append(got, typ.Field(i).Name)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("ProtocolOptions fields = %v, want %v", got, want)
	}
}

// TestProtocolOptionsValidateAllowsNegativeIdleHeartbeat documents the one
// deliberate exception: a negative IdleHeartbeat is the explicit opt-out
// from merged-mode heartbeats, not a misconfiguration.
func TestProtocolOptionsValidateAllowsNegativeIdleHeartbeat(t *testing.T) {
	if err := (ProtocolOptions{IdleHeartbeat: -1}).Validate(); err != nil {
		t.Fatalf("negative IdleHeartbeat rejected: %v", err)
	}
}

// TestNewProcessRejectsInvalidOptions: validation happens at construction,
// not first use.
func TestNewProcessRejectsInvalidOptions(t *testing.T) {
	net := NewMemNetwork(1, MemNetOptions{})
	defer net.Close()
	_, err := NewProcess(Config{
		PID:      0,
		N:        1,
		Protocol: ProtocolOptions{PipelineDepth: -3},
	}, NewMemStorage(), net)
	if err == nil {
		t.Fatal("NewProcess accepted a negative PipelineDepth")
	}
}

// TestNewShardedRejectsInvalidOptions: same contract on the sharded
// constructor.
func TestNewShardedRejectsInvalidOptions(t *testing.T) {
	inner := NewMemNetwork(1, MemNetOptions{})
	defer inner.Close()
	net := NewShardedNetwork(inner, 2)
	_, err := NewSharded(ShardedConfig{
		PID:      0,
		N:        1,
		Protocol: ProtocolOptions{MaxBatchBytes: -1},
	}, NewMemStorage(), net)
	if err == nil {
		t.Fatal("NewSharded accepted a negative MaxBatchBytes")
	}
}
