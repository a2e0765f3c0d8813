// Package toy is a deliberately small service whose failure is beyond the
// paper's single-fault scope (§6 limitation 2): it needs TWO
// causally-independent faults — a degraded disk subsystem AND a network
// flake while degraded — before the symptom appears. Single-fault search
// cannot reproduce it; the pair fault class, which arms two faults in one
// round, does.
package toy

import (
	"anduril/internal/cluster"
	"anduril/internal/des"
	"anduril/internal/inject"
)

// Horizon is the virtual time the toy workload needs.
const Horizon = des.Second

// service runs a periodic disk scrub and a periodic peer ping; the
// unrecoverable state needs a scrub failure followed by a ping failure.
type service struct {
	env      *cluster.Env
	degraded bool
	dead     bool
}

// Workload boots the service and drives it to quiescence.
func Workload(env *cluster.Env) {
	s := &service{env: env}
	env.Sim.Every("toy-scrubber", 100*des.Millisecond, func() {
		if s.dead {
			return
		}
		s.scrub()
	})
	env.Sim.Every("toy-pinger", 130*des.Millisecond, func() {
		if s.dead {
			return
		}
		s.ping()
	})
	// The repair pass clears degradation, so a degraded window lasts up to
	// one repair period.
	env.Sim.Every("toy-repair", 300*des.Millisecond, func() {
		if s.dead || !s.degraded {
			return
		}
		env.Log.Infof("store repaired, degradation cleared")
		s.degraded = false
	})
}

// scrub checks the local store; a failure leaves the service degraded
// until the repair pass clears it.
func (s *service) scrub() {
	env := s.env
	if err := env.FI.Reach("toy.scrub-store", inject.IO); err != nil {
		env.Log.Warnf("store scrub failed, running degraded")
		s.degraded = true
		return
	}
	env.Log.Debugf("store scrub clean")
}

// ping checks the peer; a flake is tolerated unless the store is degraded
// at that exact moment, in which case the failover logic wedges for good.
func (s *service) ping() {
	env := s.env
	if err := env.FI.Reach("toy.ping-peer", inject.Socket); err != nil {
		if s.degraded {
			env.Log.Errorf("service entered unrecoverable state: degraded store with unreachable peer")
			s.dead = true
			return
		}
		env.Log.Warnf("peer ping flaked, tolerated")
		return
	}
	env.Log.Debugf("peer ping ok")
}
