package exp

import (
	"strings"
	"testing"

	"pdq/internal/scenario"
)

// The figure drivers run at Quick scale and their qualitative shapes are
// asserted against the paper's claims (DESIGN.md §6): who wins, by
// roughly what factor, where the crossovers fall.

var quick = scenario.Opts{Quick: true}

func TestFig1Shapes(t *testing.T) {
	tab := Figures["fig1"](quick)
	if got := tab.Get("FairSharing", "meanFCT"); got < 4.6 || got > 4.72 {
		t.Errorf("fair sharing mean FCT %.2f, want ≈4.67", got)
	}
	if got := tab.Get("SJF/EDF", "meanFCT"); got < 3.3 || got > 3.37 {
		t.Errorf("SJF mean FCT %.2f, want ≈3.33", got)
	}
	if got := tab.Get("SJF/EDF", "met"); got != 3 {
		t.Errorf("EDF met %v deadlines, want 3", got)
	}
	if got := tab.Get("FairSharing", "met"); got != 1 {
		t.Errorf("fair sharing met %v deadlines, want 1 (only fC)", got)
	}
	if got := tab.Get("D3(fB;fA;fC)", "met"); got >= 3 {
		t.Errorf("D3 with bad arrival order met %v, want < 3", got)
	}
}

func TestFig3aShapes(t *testing.T) {
	tab := Figures["fig3a"](quick)
	// At high load PDQ(Full) must beat D3, RCP and TCP and track Optimal.
	col := tab.Cols[len(tab.Cols)-1]
	pdq := tab.Get("PDQ(Full)", col)
	if d3 := tab.Get("D3", col); pdq < d3 {
		t.Errorf("PDQ(Full) %.1f%% < D3 %.1f%% at n=%s", pdq, d3, col)
	}
	if tcp := tab.Get("TCP", col); pdq < tcp {
		t.Errorf("PDQ(Full) %.1f%% < TCP %.1f%%", pdq, tcp)
	}
	if opt := tab.Get("Optimal", col); pdq < opt-15 {
		t.Errorf("PDQ(Full) %.1f%% too far below Optimal %.1f%%", pdq, opt)
	}
}

func TestFig3cShapes(t *testing.T) {
	tab := Figures["fig3c"](quick)
	for _, col := range tab.Cols {
		pdq := tab.Get("PDQ(Full)", col)
		d3 := tab.Get("D3", col)
		rcp := tab.Get("RCP", col)
		if pdq < 1.3*d3 {
			t.Errorf("deadline %sms: PDQ supports %v flows vs D3 %v; paper reports ≈3x at paper scale", col, pdq, d3)
		}
		if pdq < 2*rcp {
			t.Errorf("deadline %sms: PDQ %v vs RCP %v, want ≥2x", col, pdq, rcp)
		}
		if opt := tab.Get("Optimal", col); pdq > opt {
			t.Errorf("deadline %sms: PDQ %v exceeds Optimal %v", col, pdq, opt)
		}
	}
}

func TestFig3dShapes(t *testing.T) {
	tab := Figures["fig3d"](quick)
	col := tab.Cols[len(tab.Cols)-1]
	pdq := tab.Get("PDQ(Full)", col)
	rcp := tab.Get("RCP/D3", col)
	if pdq >= rcp {
		t.Errorf("PDQ normalized FCT %.2f not below RCP %.2f", pdq, rcp)
	}
	// Paper: ~30% savings vs RCP at load.
	if pdq > 0.85*rcp {
		t.Errorf("PDQ/RCP ratio %.2f, want ≤0.85", pdq/rcp)
	}
	if pdq < 1 {
		t.Errorf("normalized-to-optimal FCT %.2f below 1 is impossible", pdq)
	}
}

func TestFig4Shapes(t *testing.T) {
	tab := Figures["fig4b"](quick)
	for _, col := range tab.Cols {
		if rcp := tab.Get("RCP/D3", col); rcp <= 1 {
			t.Errorf("%s: RCP normalized FCT %.2f should exceed PDQ(Full)=1", col, rcp)
		}
	}
}

func TestFig6Shapes(t *testing.T) {
	tab := Figures["fig6"](quick)
	if done := tab.Get("all done [ms]", "value"); done < 40 || done > 47 {
		t.Errorf("5×1MB completion %.1f ms, want ≈42 (seamless switching)", done)
	}
	if util := tab.Get("utilization 5-40ms [%]", "value"); util < 95 {
		t.Errorf("bottleneck utilization %.1f%%, want ≈100%%", util)
	}
	if q := tab.Get("max queue [pkts]", "value"); q > 20 {
		t.Errorf("max queue %.0f pkts, want small", q)
	}
	if d := tab.Get("drops", "value"); d != 0 {
		t.Errorf("%v drops, want 0", d)
	}
}

func TestFig7Shapes(t *testing.T) {
	tab := Figures["fig7"](quick)
	if got, want := tab.Get("shorts completed", "value"), 25.0; got != want {
		t.Fatalf("shorts completed %v, want %v", got, want)
	}
	if util := tab.Get("util during preemption [%]", "value"); util < 80 {
		t.Errorf("utilization during preemption %.1f%%, paper reports ≈91.7%%", util)
	}
	// The paper reports 5–10 packets; we allow more headroom because our
	// probe also catches the switchover transients, but the queue must
	// stay orders of magnitude below the 4 MB (≈2800-pkt) buffer.
	if q := tab.Get("max queue [pkts]", "value"); q > 100 {
		t.Errorf("max queue %.0f pkts, want well below buffer size", q)
	}
}

func TestFig8eShapes(t *testing.T) {
	tab := Figures["fig8e"](quick)
	if f2 := tab.Get("% with ratio >= 2 (PDQ 2x faster)", "value"); f2 < 15 {
		t.Errorf("only %.1f%% of flows ≥2x faster under PDQ; paper ≈40%%", f2)
	}
	if worse := tab.Get("% with ratio < 1 (PDQ slower)", "value"); worse > 25 {
		t.Errorf("%.1f%% of flows worse under PDQ; paper reports 5-15%%", worse)
	}
	if med := tab.Get("median ratio", "value"); med < 1 {
		t.Errorf("median RCP/PDQ ratio %.2f < 1", med)
	}
}

func TestFig9Shapes(t *testing.T) {
	tab := Figures["fig9b"](quick)
	lossCol := tab.Cols[len(tab.Cols)-1]
	pdqLossy := tab.Get("PDQ(Full)", lossCol)
	tcpLossy := tab.Get("TCP", lossCol)
	if pdqLossy > tcpLossy {
		t.Errorf("under loss, PDQ FCT %.2f should stay below TCP %.2f", pdqLossy, tcpLossy)
	}
	pdqClean := tab.Get("PDQ(Full)", tab.Cols[0])
	if pdqLossy > 1.6*pdqClean {
		t.Errorf("PDQ inflated %.2fx under loss; paper reports ≈11%% at 3%%", pdqLossy/pdqClean)
	}
}

func TestFig10Shapes(t *testing.T) {
	tab := Figures["fig10"](quick)
	perfect := tab.Get("PDQ; Perfect", "Pareto1.1")
	random := tab.Get("PDQ; Random", "Pareto1.1")
	est := tab.Get("PDQ; SizeEstimation", "Pareto1.1")
	rcp := tab.Get("RCP", "Pareto1.1")
	if random <= perfect {
		t.Errorf("random criticality %.2f should beat perfect %.2f nowhere", random, perfect)
	}
	// §5.6: estimation "compares favorably against RCP in both uniform
	// and heavy-tailed distributions" — we require a clear win on
	// uniform and near-parity on the heavy tail.
	if est > 1.15*rcp {
		t.Errorf("size estimation %.2f too far above RCP %.2f (§5.6)", est, rcp)
	}
	if estU, rcpU := tab.Get("PDQ; SizeEstimation", "Uniform"), tab.Get("RCP", "Uniform"); estU >= rcpU {
		t.Errorf("uniform: estimation %.2f should beat RCP %.2f", estU, rcpU)
	}
}

func TestFig11Shapes(t *testing.T) {
	tab := Figures["fig11b"](quick)
	single := tab.Get("M-PDQ", "1")
	multi := tab.Get("M-PDQ", "4")
	// At full load multipath gains are small (paper Fig. 11a); our ECMP
	// striping (DESIGN.md §5) must at least stay close. The quick config
	// runs only 16 flows, so the ratio carries seed noise on the order of
	// ±15% (other seeds put M-PDQ(4) up to 17% ahead); the bound pins
	// "not much worse", not a precise gain.
	if multi > single*1.15 {
		t.Errorf("M-PDQ(4) FCT %.2f much worse than single-path %.2f", multi, single)
	}
}

func TestFig12Shapes(t *testing.T) {
	tab := Figures["fig12"](quick)
	plain := tab.Get("PDQ; Max", "a=0")
	aged := tab.Get("PDQ; Max", "a=16")
	// Paper: aging cuts the worst FCT roughly in half.
	if aged > 0.7*plain {
		t.Errorf("aging max FCT %.1f not well below α=0 %.1f", aged, plain)
	}
	// Aging trades some mean FCT, but even aggressive aging must stay at
	// or below fair sharing's mean.
	meanAged := tab.Get("PDQ; Mean", "a=16")
	rcpMean := tab.Get("RCP/D3; Mean", "a=0")
	if meanAged > 1.2*rcpMean {
		t.Errorf("aged PDQ mean %.1f exceeds RCP mean %.1f", meanAged, rcpMean)
	}
}

func TestTableFormatting(t *testing.T) {
	tab := Figures["fig1"](quick)
	s := tab.String()
	if !strings.Contains(s, "fig1") || !strings.Contains(s, "FairSharing") {
		t.Errorf("table rendering missing content:\n%s", s)
	}
}

func TestRegistryComplete(t *testing.T) {
	want := []string{"fig1", "fig3a", "fig3b", "fig3c", "fig3d", "fig3e",
		"fig4a", "fig4b", "fig5a", "fig5b", "fig5c", "fig6", "fig7",
		"fig8a", "fig8b", "fig8c", "fig8d", "fig8e", "fig9a", "fig9b",
		"fig10", "fig11a", "fig11b", "fig11c", "fig12"}
	if len(FigureNames()) != len(want) {
		t.Fatalf("registry has %d figures, want %d", len(FigureNames()), len(want))
	}
	for _, n := range want {
		if Figures[n] == nil {
			t.Errorf("missing figure %s", n)
		}
	}
}

func TestFig3bShapes(t *testing.T) {
	tab := Figures["fig3b"](quick)
	// Deadline-agnostic schemes degrade as flows grow; PDQ stays at
	// optimal for only 3 flows.
	big := tab.Cols[len(tab.Cols)-1]
	if pdq := tab.Get("PDQ(Full)", big); pdq < tab.Get("RCP", big) {
		t.Errorf("PDQ %.1f below RCP %.1f at large sizes", pdq, tab.Get("RCP", big))
	}
	if pdq, opt := tab.Get("PDQ(Full)", big), tab.Get("Optimal", big); pdq < opt-20 {
		t.Errorf("PDQ %.1f too far below Optimal %.1f", pdq, opt)
	}
}

func TestFig3eShapes(t *testing.T) {
	tab := Figures["fig3e"](quick)
	// PDQ approaches optimal as flow size increases (§5.2.2).
	small := tab.Get("PDQ(Full)", tab.Cols[0])
	large := tab.Get("PDQ(Full)", tab.Cols[len(tab.Cols)-1])
	if large >= small {
		t.Errorf("normalized FCT should shrink with flow size: %.2f → %.2f", small, large)
	}
	if large > 1.3 {
		t.Errorf("PDQ at large flows %.2f× optimal, want close to 1", large)
	}
}

func TestFig5Shapes(t *testing.T) {
	b := Figures["fig5b"](quick)
	if tcp := b.Get("TCP", "norm"); tcp < 1.2 {
		t.Errorf("fig5b: TCP long-flow FCT %.2f should clearly exceed PDQ", tcp)
	}
	c := Figures["fig5c"](quick)
	if rcp := c.Get("RCP/D3", "norm"); rcp < 1.0 {
		t.Errorf("fig5c: RCP %.2f should not beat PDQ", rcp)
	}
	if tcp := c.Get("TCP", "norm"); tcp < 1.2 {
		t.Errorf("fig5c: TCP %.2f should clearly exceed PDQ", tcp)
	}
}

func TestFig8bShapes(t *testing.T) {
	tab := Figures["fig8b"](quick)
	col := tab.Cols[0]
	pdqPkt := tab.Get("PDQ(Full); Pkt", col)
	rcpPkt := tab.Get("RCP/D3; Pkt", col)
	if pdqPkt > rcpPkt {
		t.Errorf("packet level: PDQ FCT %.1f above RCP %.1f", pdqPkt, rcpPkt)
	}
	pdqFlow := tab.Get("PDQ(Full); Flow", col)
	rcpFlow := tab.Get("RCP/D3; Flow", col)
	if pdqFlow > rcpFlow {
		t.Errorf("flow level: PDQ FCT %.1f above RCP %.1f", pdqFlow, rcpFlow)
	}
	// Flow level tracks packet level within a factor of ~2.5 (DESIGN.md §6).
	if rcpFlow < rcpPkt/2.5 || rcpFlow > rcpPkt*2.5 {
		t.Errorf("RCP flow level %.1f vs packet level %.1f: simulators diverged", rcpFlow, rcpPkt)
	}
}

func TestFig9aShapes(t *testing.T) {
	tab := Figures["fig9a"](quick)
	clean, lossy := tab.Cols[0], tab.Cols[len(tab.Cols)-1]
	if pdq0, tcp0 := tab.Get("PDQ(Full)", clean), tab.Get("TCP", clean); pdq0 <= tcp0 {
		t.Errorf("lossless: PDQ %v should exceed TCP %v", pdq0, tcp0)
	}
	if pdqL, tcpL := tab.Get("PDQ(Full)", lossy), tab.Get("TCP", lossy); pdqL < tcpL {
		t.Errorf("lossy: PDQ %v below TCP %v", pdqL, tcpL)
	}
}
