"""Mine stage: git reads (``gitio``) and the class-lineage history miner (``miner``)."""
