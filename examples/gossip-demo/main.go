// Gossip demo: §V's "publish true-chimer lists" extension in action.
//
// Five hardened nodes run over a badly lossy network (35% UDP loss),
// where a tainted node's recovery round often gathers only one or two
// peer answers — too few for a same-moment majority, so without gossip
// every such round falls back to the Time Authority. With gossip, each
// node publishes which peers it has observed interval-consistent; a
// peer accredited by a majority of those published views can untaint a
// node single-handedly.
//
//	go run ./examples/gossip-demo
package main

import (
	"fmt"
	"log"
	"time"

	"triadtime"
)

func run(gossip bool) {
	lab, err := triadtime.NewLab(triadtime.LabConfig{
		Seed:     2024,
		Nodes:    5,
		Hardened: true,
		Gossip:   gossip,
		LossProb: 0.35, // every link drops 35% of datagrams
	})
	if err != nil {
		log.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		lab.UseTriadLikeAEXs(i)
	}
	lab.Start()
	lab.Run(10 * time.Minute)

	taRefs, untaints := 0, 0
	worstAvail := 1.0
	for i := 0; i < 5; i++ {
		taRefs += lab.Nodes[i].Counters().TAReferences
		untaints += lab.Nodes[i].Counters().PeerUntaints
		if a := lab.Availability(i); a < worstAvail {
			worstAvail = a
		}
	}
	fmt.Printf("gossip=%-5v  TA references %4d   peer recoveries %4d   worst availability %.2f%%\n",
		gossip, taRefs, untaints, worstAvail*100)
}

func main() {
	fmt.Println("5 hardened nodes, Triad-like AEX storms, 10 simulated minutes:")
	run(false)
	run(true)
	fmt.Println()
	fmt.Println("Accreditation lets a single trusted peer stand in for a majority,")
	fmt.Println("so the cluster leans on its own members instead of the remote Time")
	fmt.Println("Authority — the paper's §V: \"a majority clique of true-chimers may")
	fmt.Println("be used to maintain clock consistency and rely less often on the TA\".")
}
