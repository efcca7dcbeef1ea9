package region

import (
	"strings"
	"testing"

	"treegion/internal/ir"
	"treegion/internal/profile"
)

// TestAddPanicsOnBlockOwnedByAnotherRegion: one partition admits each block
// once across all of its regions, not just once per region.
func TestAddPanicsOnBlockOwnedByAnotherRegion(t *testing.T) {
	_, r := tree(t)
	p := r.Partition()
	r5 := p.NewRegion(KindTreegion, 5)
	defer func() {
		msg, _ := recover().(string)
		if !strings.Contains(msg, "bb2") || !strings.Contains(msg, "bb0") {
			t.Fatalf("Add of a block owned by another region: recovered %q, want a panic naming bb2 and its owner's root bb0", msg)
		}
		if p.Owner(2) != r || r5.Contains(2) || len(r5.Blocks) != 1 {
			t.Fatal("the refused Add changed the partition")
		}
	}()
	r5.Add(2, 5)
}

func TestNewRegionPanicsOnOwnedRoot(t *testing.T) {
	_, r := tree(t)
	defer func() {
		if recover() == nil {
			t.Fatal("a region rooted at a block another region owns did not panic")
		}
	}()
	r.Partition().NewRegion(KindTreegion, 3)
}

// TestPartitionSharedTable: regions of one partition read positions and
// parents from the shared table, and Owner names each block's region.
func TestPartitionSharedTable(t *testing.T) {
	f, r := tree(t)
	p := r.Partition()
	r5, r6 := p.NewRegion(KindTreegion, 5), p.NewRegion(KindTreegion, 6)
	for _, b := range f.Blocks {
		want := r
		switch b.ID {
		case 5:
			want = r5
		case 6:
			want = r6
		}
		if p.Owner(b.ID) != want {
			t.Errorf("Owner(bb%d) = %v, want %v", b.ID, p.Owner(b.ID), want)
		}
	}
	if r.Contains(5) || r5.Contains(0) || r5.Pos(5) != 0 || r.Pos(4) != 4 || r5.Parent(5) != ir.NoBlock {
		t.Error("membership leaked across regions of one partition")
	}
	if p.Owner(ir.NoBlock) != nil || p.Owner(99) != nil {
		t.Error("Owner of a block outside the function is not nil")
	}
}

// TestPartitionGrowsWithAppendedBlocks: blocks appended to the function
// during formation (tail duplicates, inline splices) join the same table.
func TestPartitionGrowsWithAppendedBlocks(t *testing.T) {
	f, r := tree(t)
	dup := TailDuplicate(f, profile.New(), 2, 5)
	r.Add(dup.ID, 2)
	if !r.Contains(dup.ID) || r.Parent(dup.ID) != 2 || r.Partition().Owner(dup.ID) != r {
		t.Fatalf("appended bb%d did not join the partition", dup.ID)
	}
	r.Partition().NewRegion(KindTreegion, 5)
	r.Partition().NewRegion(KindTreegion, 6)
	if err := CheckPartition(f, r.Partition().regions); err != nil {
		t.Fatal(err)
	}
}

// TestPartitionCheck: Check accepts exactly the formed regions in order,
// and names a block no region covers.
func TestPartitionCheck(t *testing.T) {
	_, r := tree(t)
	p := r.Partition()
	r5 := p.NewRegion(KindTreegion, 5)
	err := p.Check([]*Region{r, r5})
	if err == nil || !strings.Contains(err.Error(), "bb6 in no region") {
		t.Fatalf("Check with bb6 uncovered = %v, want an error naming bb6", err)
	}
	r6 := p.NewRegion(KindTreegion, 6)
	if err := p.Check([]*Region{r, r5, r6}); err != nil {
		t.Fatalf("full partition rejected: %v", err)
	}
	if err := p.Check([]*Region{r, r6, r5}); err == nil {
		t.Fatal("regions out of formation order accepted")
	}
	if err := p.Check([]*Region{r, r5}); err == nil {
		t.Fatal("a formed region missing from the list accepted")
	}
	if err := p.Check([]*Region{r, r5, New(r.Fn, KindTreegion, 6)}); err == nil {
		t.Fatal("a region of another partition accepted")
	}
}

// TestRebuildRefusesOverlap: the store's decode path reads overlapping
// records as an error, not a panic.
func TestRebuildRefusesOverlap(t *testing.T) {
	f, r := tree(t)
	p := NewPartition(f)
	if _, err := Rebuild(p, KindTreegion, r.Blocks, r.Parents(), false); err != nil {
		t.Fatal(err)
	}
	if _, err := Rebuild(p, KindTreegion, []ir.BlockID{5, 4}, []ir.BlockID{ir.NoBlock, 5}, false); err == nil {
		t.Fatal("a member another region owns was rebuilt")
	}
	if _, err := Rebuild(p, KindTreegion, []ir.BlockID{1}, []ir.BlockID{ir.NoBlock}, false); err == nil {
		t.Fatal("a root another region owns was rebuilt")
	}
	if _, err := Rebuild(p, KindTreegion, []ir.BlockID{6, 6}, []ir.BlockID{ir.NoBlock, 6}, false); err == nil {
		t.Fatal("a block listed twice was rebuilt")
	}
}
