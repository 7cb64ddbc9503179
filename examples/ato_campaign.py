#!/usr/bin/env python3
"""An account-takeover campaign, end to end (the paper's threat model).

Plays out the full supply chain the paper's introduction describes:

1. infostealers harvest victim browser profiles from legitimate
   traffic (the Genesis Market pipeline);
2. a fraudster buys a batch and loads it into GoLogin (Category 2) and
   Linken Sphere (Category 1);
3. the attack sessions hit the FinOrg scoring endpoint;
4. Browser Polygraph's verdicts — and per-session explanations — show
   which attempts are caught and why.

Run:  python examples/ato_campaign.py
"""

from datetime import date

from repro import BrowserPolygraph, TrafficConfig, TrafficSimulator
from repro.core.explain import explain_detection
from repro.fraudbrowsers import fraud_browser
from repro.fraudbrowsers.marketplace import AttackCampaign, Marketplace
from repro.runtime.fastingest import WireIngest
from repro.service.scoring import ScoringService


def main() -> None:
    print("training Browser Polygraph on the clean window ...")
    traffic = TrafficSimulator(TrafficConfig(seed=7).scaled(40_000)).generate()
    polygraph = BrowserPolygraph().fit(traffic)
    service = ScoringService(polygraph, ingest=WireIngest(dedup_window=0))
    print(f"  accuracy {polygraph.accuracy:.4f}\n")

    # --- the underground supply chain ---------------------------------
    market = Marketplace(seed=13)
    listings = market.harvest_from_traffic(traffic, infection_rate=0.005)
    today = date(2023, 7, 10)
    print(
        f"marketplace: {listings} profiles harvested, "
        f"average shelf age {market.average_age_days(today):.0f} days, "
        f"cheapest stock first"
    )

    # --- two campaigns with different tooling -------------------------
    for product_name, n_attacks in (("GoLogin-3.3.23", 60), ("Linken Sphere-8.93", 40)):
        product = fraud_browser(product_name)
        campaign = AttackCampaign(product, market, seed=len(product_name))
        sessions = campaign.run(n_attacks, today=today)

        caught, missed = [], []
        for attack in sessions:
            verdict = service.score_wire(attack.payload.to_wire())
            (caught if verdict.flagged else missed).append((attack, verdict))

        recall = 100.0 * len(caught) / max(1, len(sessions))
        print(
            f"\n{product.full_name} (category {int(product.category)}): "
            f"{len(caught)}/{len(sessions)} attacks flagged ({recall:.0f}% recall)"
        )

        if caught:
            attack, verdict = caught[0]
            explanation = explain_detection(
                polygraph.cluster_model,
                attack.payload.vector(),
                attack.victim.user_agent.key(),
            )
            print(f"  example catch (risk {verdict.risk_factor}):")
            print(f"    {explanation.summary(top=2)}")
        if missed:
            claimed = sorted({a.victim.user_agent.key() for a, _ in missed})
            print(
                f"  missed while claiming {', '.join(claimed[:5])} — "
                "user-agents in the engine's own cluster evade the "
                "coarse-grained check (the paper's Sphere effect)"
            )

    print(
        f"\nmarketplace after the campaigns: {market.stock} profiles left, "
        f"{market.sold_count} sold"
    )


if __name__ == "__main__":
    main()
