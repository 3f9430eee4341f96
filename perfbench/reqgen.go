package main

import (
	"encoding/json"
	"math/rand"
	"sync"
)

// serve-fleet-n16 requests: a 16^3 single-box Euler solve of eight
// steps on one thread. The velocity is the only field that varies, so
// that placement (a hash of the body) spreads over the peers.
const (
	serveDomainN = 16
	serveSteps   = 8
	// serveDt is the server's default time step; bodies leave dt unset.
	serveDt = 0.2
)

type solveBody struct {
	DomainN    int        `json:"domain_n"`
	BoxN       int        `json:"box_n"`
	Integrator string     `json:"integrator"`
	Steps      int        `json:"steps"`
	Threads    int        `json:"threads"`
	U          [3]float64 `json:"u"`
}

// reqGen produces the seeded request sequence: body i is the same for
// the same seed, no two bodies are equal, and every velocity is
// CFL-safe at the server's default dt. It is safe for concurrent use;
// which client sends body i depends on timing, the bodies do not.
type reqGen struct {
	mu   sync.Mutex
	rng  *rand.Rand
	seen map[[3]float64]bool
	n    int
}

func newReqGen(seed int64) *reqGen {
	return &reqGen{rng: rand.New(rand.NewSource(seed)), seen: map[[3]float64]bool{}}
}

// Next returns the next body's index and its JSON.
func (g *reqGen) Next() (int, []byte) {
	g.mu.Lock()
	defer g.mu.Unlock()
	var u [3]float64
	for {
		u = seededVelocity(g.rng, serveDt)
		if !g.seen[u] {
			break
		}
	}
	g.seen[u] = true
	i := g.n
	g.n++
	b, err := json.Marshal(solveBody{
		DomainN: serveDomainN, BoxN: serveDomainN, Integrator: "euler",
		Steps: serveSteps, Threads: 1, U: u,
	})
	if err != nil {
		panic(err) // a fixed struct of numbers always marshals
	}
	return i, b
}
