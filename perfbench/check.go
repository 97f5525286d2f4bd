package main

import (
	"errors"
	"fmt"
	"math"
	"sort"

	"github.com/dphsrc/dphsrc/internal/core"
	"github.com/dphsrc/dphsrc/internal/mechanism"
	"github.com/dphsrc/dphsrc/internal/protocol"
	"github.com/dphsrc/dphsrc/internal/shard"
	"github.com/dphsrc/dphsrc/internal/store"
)

// The checks below run untimed, after the measured rounds; any error
// they return marks the run incorrect.

var (
	errMismatch   = errors.New("outcome differs from the re-derived one")
	errSettlement = errors.New("settlement inconsistent")
	errPartition  = errors.New("partition accounting inconsistent")
	errCoverage   = errors.New("winners miss a task's Lemma 1 demand")
	errLedger     = errors.New("privacy ledger inconsistent")
	errRecovery   = errors.New("recovered state differs from the live state")
)

// checkUnsharded verifies one single-auction outcome against the
// instance rebuilt from the captured bids and skill rows, and against
// want, the outcome core.New(inst).Run draws from the round's seed.
func checkUnsharded(inst core.Instance, got, want core.Outcome) error {
	if err := core.VerifyOutcome(inst, got); err != nil {
		return err
	}
	same := got.Price == want.Price && got.TotalPayment == want.TotalPayment &&
		got.Feasible == want.Feasible && len(got.Winners) == len(want.Winners)
	for i := 0; same && i < len(got.Winners); i++ {
		same = got.Winners[i] == want.Winners[i]
	}
	if !same {
		return fmt.Errorf("%w: price %v winners %d, want price %v winners %d",
			errMismatch, got.Price, len(got.Winners), want.Price, len(want.Winners))
	}
	return nil
}

// rederive rebuilds the auction from scratch and draws the round's
// outcome with the seed the platform uses for that round.
func rederive(inst core.Instance, seed int64) (core.Outcome, error) {
	a, err := core.New(inst)
	if err != nil {
		return core.Outcome{}, err
	}
	return a.Run(newRand(seed)), nil
}

// priceTolerance is the slack the mechanism itself allows between a
// bid and a price: grid costs such as 48.400000000000006 clear at the
// grid price 48.4.
const priceTolerance = 1e-9

// checkSettled verifies one bidder's settlement: a winner is paid
// exactly the clearing price it was told, and at least its cost
// (individual rationality, Thm 4).
func checkSettled(id string, cost float64, r protocol.WorkerReport) error {
	if !r.Won {
		if r.Payment != 0 {
			return fmt.Errorf("%w: loser %s paid %v", errSettlement, id, r.Payment)
		}
		return nil
	}
	if r.Payment != r.ClearingPrice {
		return fmt.Errorf("%w: %s paid %v at clearing price %v", errSettlement, id, r.Payment, r.ClearingPrice)
	}
	if r.Payment < cost-priceTolerance {
		return fmt.Errorf("%w: %s paid %v below its cost %v", errSettlement, id, r.Payment, cost)
	}
	return nil
}

// checkCoverage verifies that the winners (indices into inst) meet
// every task's Lemma 1 demand sum (2θ-1)² >= 2 ln(1/δ).
func checkCoverage(inst core.Instance, winners []int) error {
	for j := 0; j < inst.NumTasks; j++ {
		sum := 0.0
		for _, w := range winners {
			sum += inst.Quality(w, j)
		}
		if sum < inst.Demand(j)-1e-6 {
			return fmt.Errorf("%w: task %d has %v of %v", errCoverage, j, sum, inst.Demand(j))
		}
	}
	return nil
}

// checkSharded verifies one merged sharded round. inst holds the round's
// bidders in worker-ID order with their captured skill rows.
func checkSharded(so *shard.RoundOutcome, inst core.Instance, partitions int) error {
	if so == nil {
		return fmt.Errorf("%w: sharded round without a partition report", errPartition)
	}
	if len(so.Partitions) != partitions {
		return fmt.Errorf("%w: %d partition reports, want %d", errPartition, len(so.Partitions), partitions)
	}
	sum := 0
	for _, pr := range so.Partitions {
		sum += pr.Bidders
		if pr.Status != shard.StatusOK {
			return fmt.Errorf("%w: partition %d ended %s", errPartition, pr.Partition, pr.Status)
		}
	}
	if sum != len(inst.Workers) || so.Bidders != len(inst.Workers) {
		return fmt.Errorf("%w: partitions hold %d bids (merged %d), want %d", errPartition, sum, so.Bidders, len(inst.Workers))
	}
	index := make(map[string]int, len(inst.Workers))
	for i, w := range inst.Workers {
		index[w.ID] = i
	}
	winners := make([]int, 0, len(so.Winners))
	paid := 0.0
	for _, w := range so.Winners {
		i, ok := index[w.WorkerID]
		if !ok {
			return fmt.Errorf("%w: winner %s did not bid", errPartition, w.WorkerID)
		}
		if inst.Workers[i].Bid > w.Price+priceTolerance {
			return fmt.Errorf("%w: winner %s bid %v above its price %v", core.ErrOutcomeIR, w.WorkerID, inst.Workers[i].Bid, w.Price)
		}
		winners = append(winners, i)
		paid += w.Price
	}
	if math.Abs(paid-so.TotalPayment) > 1e-6*math.Max(1, math.Abs(paid)) {
		return fmt.Errorf("%w: total %v != sum of winner prices %v", core.ErrOutcomePayment, so.TotalPayment, paid)
	}
	return checkCoverage(inst, winners)
}

// checkLedger verifies that the accountant spent exactly one epsilon
// per completed round: the same float the accountant's own sequential
// fold produces, compared bit for bit.
func checkLedger(spent float64, rounds int, eps float64) error {
	want := 0.0
	for i := 0; i < rounds; i++ {
		want += eps
	}
	if math.Float64bits(spent) != math.Float64bits(want) {
		return fmt.Errorf("%w: spent %v after %d rounds of %v, want %v", errLedger, spent, rounds, eps, want)
	}
	return nil
}

// checkRecovery reopens a closed state directory and verifies that it
// recovers the live accountant's spent epsilon bit for bit, one release
// and one completed record per completed round, the resume point, and
// every journaled skill.
func checkRecovery(dir string, acct *mechanism.Accountant, skills *protocol.SkillStore, completed, nextRound int) error {
	fs, err := store.Open(dir)
	if err != nil {
		return fmt.Errorf("%w: reopening: %v", errRecovery, err)
	}
	st := fs.State()
	if err := fs.Close(); err != nil {
		return fmt.Errorf("%w: closing: %v", errRecovery, err)
	}
	switch {
	case math.Float64bits(st.Budget.Spent) != math.Float64bits(acct.Spent()):
		return fmt.Errorf("%w: spent %v, live %v", errRecovery, st.Budget.Spent, acct.Spent())
	case st.Budget.Releases != int64(completed):
		return fmt.Errorf("%w: %d releases, want %d", errRecovery, st.Budget.Releases, completed)
	case len(st.Campaign.Completed) != completed:
		return fmt.Errorf("%w: %d completed rounds, want %d", errRecovery, len(st.Campaign.Completed), completed)
	case st.Campaign.NextRound != nextRound:
		return fmt.Errorf("%w: next round %d, want %d", errRecovery, st.Campaign.NextRound, nextRound)
	case len(st.Skills) == 0:
		return fmt.Errorf("%w: no skills journaled", errRecovery)
	}
	ids := make([]string, 0, len(st.Skills))
	for id := range st.Skills {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	for _, id := range ids {
		if math.Float64bits(st.Skills[id]) != math.Float64bits(skills.Get(id)) {
			return fmt.Errorf("%w: skill of %s %v, live %v", errRecovery, id, st.Skills[id], skills.Get(id))
		}
	}
	return nil
}
