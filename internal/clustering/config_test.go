package clustering

import (
	"errors"
	"math"
	"testing"
)

func TestConfigValidate(t *testing.T) {
	good := []Config{
		{},
		{Workers: 4, MaxIter: 10, Pruning: PruneOff, Seed: 9},
	}
	for _, c := range good {
		if err := c.Validate(); err != nil {
			t.Errorf("Validate(%+v) = %v, want nil", c, err)
		}
	}
	bad := []Config{
		{Workers: -1},
		{MaxIter: -5},
		{Pruning: PruneMode(9)},
		{Pruning: PruneMode(-1)},
	}
	for _, c := range bad {
		if err := c.Validate(); !errors.Is(err, ErrBadConfig) {
			t.Errorf("Validate(%+v) = %v, want ErrBadConfig", c, err)
		}
	}
}

func TestStreamConfigValidate(t *testing.T) {
	good := []StreamConfig{
		{},
		{BatchSize: 64, Decay: 0.5, MaxBatches: 3, Workers: 2, Seed: 7},
		{Decay: 0.999},
	}
	for _, c := range good {
		if err := c.Validate(); err != nil {
			t.Errorf("Validate(%+v) = %v, want nil", c, err)
		}
	}
	bad := []StreamConfig{
		{BatchSize: -1},
		{Decay: -0.1},
		{Decay: 1},
		{Decay: math.NaN()},
		{MaxBatches: -1},
		{Workers: -2},
	}
	for _, c := range bad {
		if err := c.Validate(); !errors.Is(err, ErrBadConfig) {
			t.Errorf("Validate(%+v) = %v, want ErrBadConfig", c, err)
		}
	}
}
