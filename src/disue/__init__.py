"""Desk-scale simulator for clustered federated learning with a distilled universal expert."""
